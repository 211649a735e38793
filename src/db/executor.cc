#include "db/executor.h"

#include <algorithm>
#include <unordered_map>

#include "common/strings.h"
#include "sql/analyzer.h"
#include "sql/eval.h"
#include "sql/printer.h"

namespace cacheportal::db {

namespace {

using sql::ColumnRefExpr;
using sql::Expression;
using sql::ExpressionPtr;
using sql::ExprKind;
using sql::Value;

/// One table bound into the FROM clause.
struct BoundTable {
  std::string effective_name;  // Alias if present, else table name.
  const Table* table = nullptr;
  size_t offset = 0;  // First column's slot in the composite row.
};

/// Composite rows concatenate the columns of all FROM tables in order.
using CompositeRow = std::vector<Value>;

/// Resolves column references against a composite row.
class CompositeResolver : public sql::ColumnResolver {
 public:
  CompositeResolver(const std::vector<BoundTable>& tables,
                    const CompositeRow& row)
      : tables_(tables), row_(row) {}

  std::optional<Value> Resolve(const std::string& table,
                               const std::string& column) const override {
    if (!table.empty()) {
      for (const BoundTable& bt : tables_) {
        if (EqualsIgnoreCase(bt.effective_name, table)) {
          std::optional<size_t> idx = bt.table->schema().ColumnIndex(column);
          if (!idx.has_value()) return std::nullopt;
          size_t slot = bt.offset + *idx;
          if (slot >= row_.size()) return std::nullopt;  // Partial row.
          return row_[slot];
        }
      }
      return std::nullopt;
    }
    // Unqualified: must be unique across tables.
    std::optional<Value> found;
    for (const BoundTable& bt : tables_) {
      std::optional<size_t> idx = bt.table->schema().ColumnIndex(column);
      if (idx.has_value()) {
        size_t slot = bt.offset + *idx;
        if (slot >= row_.size()) continue;
        if (found.has_value()) return std::nullopt;  // Ambiguous.
        found = row_[slot];
      }
    }
    return found;
  }

 private:
  const std::vector<BoundTable>& tables_;
  const CompositeRow& row_;
};

/// The set of bound-table positions a conjunct references. Unqualified
/// columns are attributed to the unique owning table (error if ambiguous).
Result<std::vector<size_t>> ConjunctTables(
    const Expression& conjunct, const std::vector<BoundTable>& tables) {
  std::vector<size_t> used;
  for (const ColumnRefExpr* ref : sql::CollectColumnRefs(conjunct)) {
    int found = -1;
    if (!ref->table().empty()) {
      for (size_t i = 0; i < tables.size(); ++i) {
        if (EqualsIgnoreCase(tables[i].effective_name, ref->table())) {
          found = static_cast<int>(i);
          break;
        }
      }
      if (found < 0) {
        return Status::InvalidArgument(
            StrCat("unknown table in reference ", ref->FullName()));
      }
    } else {
      for (size_t i = 0; i < tables.size(); ++i) {
        if (tables[i].table->schema().ColumnIndex(ref->column()).has_value()) {
          if (found >= 0) {
            return Status::InvalidArgument(
                StrCat("ambiguous column ", ref->column()));
          }
          found = static_cast<int>(i);
        }
      }
      if (found < 0) {
        return Status::InvalidArgument(
            StrCat("unknown column ", ref->column()));
      }
    }
    if (std::find(used.begin(), used.end(), static_cast<size_t>(found)) ==
        used.end()) {
      used.push_back(static_cast<size_t>(found));
    }
  }
  return used;
}

/// A `col = literal` pin (either side) the table's hash index answers
/// exactly: the column is indexed and the literal's class is the
/// column's declared class — an int in an INT column, a string in a
/// STRING column. The index hashes values by representation, so only
/// then does a lookup find every row SQL equality admits (Int(3) and
/// Double(3.0) compare equal but hash apart; a NaN or double cell equals
/// keys it does not hash like).
struct IndexPin {
  size_t column = 0;  // Schema index.
  Value key;
};

std::optional<IndexPin> AsIndexPin(const Expression& expr,
                                   const BoundTable& bt) {
  if (expr.kind() != ExprKind::kBinary) return std::nullopt;
  const auto& bin = static_cast<const sql::BinaryExpr&>(expr);
  if (bin.op() != sql::BinaryOp::kEq) return std::nullopt;
  const Expression* col = &bin.left();
  const Expression* lit = &bin.right();
  if (col->kind() != ExprKind::kColumnRef) std::swap(col, lit);
  if (col->kind() != ExprKind::kColumnRef ||
      lit->kind() != ExprKind::kLiteral) {
    return std::nullopt;
  }
  const auto& ref = static_cast<const ColumnRefExpr&>(*col);
  if (!ref.table().empty() &&
      !EqualsIgnoreCase(ref.table(), bt.effective_name)) {
    return std::nullopt;
  }
  const TableSchema& schema = bt.table->schema();
  std::optional<size_t> idx = schema.ColumnIndex(ref.column());
  if (!idx.has_value() || !bt.table->HasIndex(ref.column())) {
    return std::nullopt;
  }
  const Value& key = static_cast<const sql::LiteralExpr&>(*lit).value();
  const ColumnType type = schema.columns()[*idx].type;
  if (!(type == ColumnType::kInt && key.is_int()) &&
      !(type == ColumnType::kString && key.is_string())) {
    return std::nullopt;
  }
  return IndexPin{*idx, key};
}

/// A single-table conjunct the index narrows: an OR (of one or more
/// disjuncts) where every disjunct is, or ANDs in, an index pin on one
/// shared column — the shape of a consolidated poll's WHERE. A row
/// satisfying the conjunct satisfies some disjunct and so its pin, so
/// the union of the keys' lookups holds every such row. When each
/// disjunct is a bare pin the union is exactly the satisfying rows.
struct IndexablePredicate {
  std::string column;
  std::vector<Value> keys;
  bool exact = false;
};

std::optional<IndexablePredicate> AsIndexable(const Expression& conjunct,
                                              const BoundTable& bt) {
  const std::vector<const Expression*> disjuncts =
      sql::SplitDisjuncts(conjunct);
  // Each disjunct's pins: the disjunct itself, or its top-level conjuncts.
  std::vector<std::vector<IndexPin>> pins(disjuncts.size());
  bool exact = true;
  for (size_t d = 0; d < disjuncts.size(); ++d) {
    if (std::optional<IndexPin> pin = AsIndexPin(*disjuncts[d], bt)) {
      pins[d].push_back(*pin);
      continue;
    }
    exact = false;
    for (const Expression* term : sql::SplitConjuncts(*disjuncts[d])) {
      if (std::optional<IndexPin> pin = AsIndexPin(*term, bt)) {
        pins[d].push_back(*pin);
      }
    }
  }
  // A column every disjunct pins, tried in the first disjunct's order.
  for (const IndexPin& candidate : pins[0]) {
    IndexablePredicate out;
    out.column = bt.table->schema().columns()[candidate.column].name;
    out.exact = exact;
    for (const std::vector<IndexPin>& own : pins) {
      auto pin = std::find_if(own.begin(), own.end(), [&](const IndexPin& p) {
        return p.column == candidate.column;
      });
      if (pin == own.end()) break;
      out.keys.push_back(pin->key);
    }
    if (out.keys.size() == disjuncts.size()) return out;
  }
  return std::nullopt;
}

/// Detects an equi-join conjunct `a.x = b.y` between the table being added
/// (`added`) and any already-joined table.
struct EquiJoin {
  // Slot in the composite prefix (already-joined side).
  size_t left_slot = 0;
  // Column index within the added table.
  size_t right_col = 0;
};

std::optional<EquiJoin> AsEquiJoin(const Expression& conjunct,
                                   const std::vector<BoundTable>& tables,
                                   size_t added,
                                   const std::vector<bool>& joined) {
  if (conjunct.kind() != ExprKind::kBinary) return std::nullopt;
  const auto& bin = static_cast<const sql::BinaryExpr&>(conjunct);
  if (bin.op() != sql::BinaryOp::kEq) return std::nullopt;
  if (bin.left().kind() != ExprKind::kColumnRef ||
      bin.right().kind() != ExprKind::kColumnRef) {
    return std::nullopt;
  }
  auto locate = [&](const ColumnRefExpr& ref)
      -> std::optional<std::pair<size_t, size_t>> {  // (table pos, col idx)
    for (size_t i = 0; i < tables.size(); ++i) {
      if (!ref.table().empty() &&
          !EqualsIgnoreCase(tables[i].effective_name, ref.table())) {
        continue;
      }
      std::optional<size_t> idx =
          tables[i].table->schema().ColumnIndex(ref.column());
      if (idx.has_value()) return std::make_pair(i, *idx);
      if (!ref.table().empty()) return std::nullopt;
    }
    return std::nullopt;
  };
  auto l = locate(static_cast<const ColumnRefExpr&>(bin.left()));
  auto r = locate(static_cast<const ColumnRefExpr&>(bin.right()));
  if (!l.has_value() || !r.has_value()) return std::nullopt;
  // Want one side == added, other side already joined.
  if (l->first == added && joined[r->first]) {
    return EquiJoin{tables[r->first].offset + r->second, l->second};
  }
  if (r->first == added && joined[l->first]) {
    return EquiJoin{tables[l->first].offset + l->second, r->second};
  }
  return std::nullopt;
}

/// Accumulator for one aggregate function instance.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool all_int = true;
  int64_t isum = 0;
  std::optional<Value> min;
  std::optional<Value> max;

  void Accumulate(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (v.is_numeric()) {
      sum += v.NumericAsDouble();
      if (v.is_int()) {
        isum += v.AsInt();
      } else {
        all_int = false;
      }
    } else {
      all_int = false;
    }
    if (!min.has_value() || v.Compare(*min).value_or(1) < 0) min = v;
    if (!max.has_value() || v.Compare(*max).value_or(-1) > 0) max = v;
  }

  Value Finish(const std::string& fn) const {
    if (fn == "COUNT") return Value::Int(count);
    if (count == 0) return Value::Null();
    if (fn == "SUM") return all_int ? Value::Int(isum) : Value::Double(sum);
    if (fn == "AVG") return Value::Double(sum / static_cast<double>(count));
    if (fn == "MIN") return *min;
    if (fn == "MAX") return *max;
    return Value::Null();
  }
};

/// Output column name for a select item.
std::string ItemName(const sql::SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr != nullptr) {
    if (item.expr->kind() == ExprKind::kColumnRef) {
      return static_cast<const ColumnRefExpr&>(*item.expr).column();
    }
    return sql::ExprToSql(*item.expr);
  }
  return StrCat("col", index);
}

/// Collects aggregate function calls in `expr` (for HAVING evaluation);
/// does not descend into aggregate arguments.
void CollectAggregates(const Expression& expr,
                       std::vector<const sql::FunctionCallExpr*>* out) {
  switch (expr.kind()) {
    case ExprKind::kFunctionCall: {
      const auto& f = static_cast<const sql::FunctionCallExpr&>(expr);
      if (f.IsAggregate()) {
        out->push_back(&f);
        return;
      }
      for (const auto& a : f.args()) CollectAggregates(*a, out);
      return;
    }
    case ExprKind::kUnary:
      CollectAggregates(static_cast<const sql::UnaryExpr&>(expr).operand(),
                        out);
      return;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(expr);
      CollectAggregates(b.left(), out);
      CollectAggregates(b.right(), out);
      return;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      CollectAggregates(in.operand(), out);
      for (const auto& item : in.items()) CollectAggregates(*item, out);
      return;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const sql::BetweenExpr&>(expr);
      CollectAggregates(bt.operand(), out);
      CollectAggregates(bt.low(), out);
      CollectAggregates(bt.high(), out);
      return;
    }
    case ExprKind::kIsNull:
      CollectAggregates(static_cast<const sql::IsNullExpr&>(expr).operand(),
                        out);
      return;
    default:
      return;
  }
}

/// Rewrites `expr` with each aggregate call replaced by its computed
/// value (`values[i]` corresponds to `aggs[i]`), so HAVING can be
/// evaluated as a scalar predicate per group.
ExpressionPtr RewriteAggregatesToValues(
    const Expression& expr,
    const std::vector<const sql::FunctionCallExpr*>& aggs,
    const std::vector<Value>& values) {
  if (expr.kind() == ExprKind::kFunctionCall) {
    const auto& f = static_cast<const sql::FunctionCallExpr&>(expr);
    if (f.IsAggregate()) {
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (aggs[i]->Equals(f)) {
          return std::make_unique<sql::LiteralExpr>(values[i]);
        }
      }
    }
  }
  switch (expr.kind()) {
    case ExprKind::kUnary: {
      const auto& u = static_cast<const sql::UnaryExpr&>(expr);
      return std::make_unique<sql::UnaryExpr>(
          u.op(), RewriteAggregatesToValues(u.operand(), aggs, values));
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(expr);
      return std::make_unique<sql::BinaryExpr>(
          b.op(), RewriteAggregatesToValues(b.left(), aggs, values),
          RewriteAggregatesToValues(b.right(), aggs, values));
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      std::vector<ExpressionPtr> items;
      items.reserve(in.items().size());
      for (const auto& item : in.items()) {
        items.push_back(RewriteAggregatesToValues(*item, aggs, values));
      }
      return std::make_unique<sql::InListExpr>(
          RewriteAggregatesToValues(in.operand(), aggs, values),
          std::move(items), in.negated());
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const sql::BetweenExpr&>(expr);
      return std::make_unique<sql::BetweenExpr>(
          RewriteAggregatesToValues(bt.operand(), aggs, values),
          RewriteAggregatesToValues(bt.low(), aggs, values),
          RewriteAggregatesToValues(bt.high(), aggs, values), bt.negated());
    }
    case ExprKind::kIsNull: {
      const auto& n = static_cast<const sql::IsNullExpr&>(expr);
      return std::make_unique<sql::IsNullExpr>(
          RewriteAggregatesToValues(n.operand(), aggs, values), n.negated());
    }
    default:
      return expr.Clone();
  }
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    std::optional<int> c = a[i].Compare(b[i]);
    if (c.has_value() && *c != 0) return *c < 0;
    if (!c.has_value()) {
      // Order NULLs/mixed types by hash for determinism.
      size_t ha = a[i].Hash(), hb = b[i].Hash();
      if (ha != hb) return ha < hb;
    }
  }
  return a.size() < b.size();
}

}  // namespace

Result<QueryResult> Executor::Execute(const sql::SelectStatement& stmt) const {
  // ---- Bind FROM tables. ----
  if (stmt.from.empty()) {
    return Status::InvalidArgument("SELECT requires a FROM clause");
  }
  std::vector<BoundTable> tables;
  size_t offset = 0;
  for (const sql::TableRef& ref : stmt.from) {
    const Table* table = db_->FindTable(ref.table);
    if (table == nullptr) {
      return Status::NotFound(StrCat("table ", ref.table));
    }
    tables.push_back(BoundTable{ref.EffectiveName(), table, offset});
    offset += table->schema().num_columns();
  }
  const size_t total_cols = offset;

  // ---- Classify WHERE conjuncts. ----
  std::vector<const Expression*> conjuncts;
  if (stmt.where != nullptr) conjuncts = sql::SplitConjuncts(*stmt.where);
  // Per-table single-table conjuncts; the rest apply once their last table
  // has been joined.
  std::vector<std::vector<const Expression*>> single(tables.size());
  struct MultiConjunct {
    const Expression* expr;
    std::vector<size_t> tables;
  };
  std::vector<MultiConjunct> multi;
  for (const Expression* c : conjuncts) {
    CACHEPORTAL_ASSIGN_OR_RETURN(std::vector<size_t> used,
                                 ConjunctTables(*c, tables));
    if (used.empty()) {
      // Constant conjunct: fold it now.
      sql::FoldResult fr = sql::FoldConstants(*c);
      if (fr.outcome == sql::FoldOutcome::kFalse ||
          fr.outcome == sql::FoldOutcome::kNull) {
        QueryResult empty;
        for (size_t i = 0; i < stmt.items.size(); ++i) {
          empty.columns.push_back(ItemName(stmt.items[i], i));
        }
        return empty;
      }
      if (fr.outcome == sql::FoldOutcome::kTrue) continue;
      return Status::InvalidArgument(
          "non-constant parameter in WHERE (bind parameters first)");
    }
    if (used.size() == 1) {
      single[used[0]].push_back(c);
    } else {
      multi.push_back(MultiConjunct{c, std::move(used)});
    }
  }

  // ---- Scan the first table with pushed-down filters. ----
  auto scan_table = [&](size_t pos) -> Result<std::vector<CompositeRow>> {
    const BoundTable& bt = tables[pos];
    std::vector<CompositeRow> out;
    // Try an index for one of the single-table conjuncts. An exact one
    // holds for every row its lookups return, so it is not re-evaluated.
    std::optional<IndexablePredicate> indexed;
    const Expression* answered = nullptr;
    for (const Expression* c : single[pos]) {
      indexed = AsIndexable(*c, bt);
      if (indexed.has_value()) {
        if (indexed->exact) answered = c;
        break;
      }
    }
    std::vector<const Row*> candidates;
    if (indexed.has_value()) {
      // The union of the keys' lookups, in RowId order — the order a
      // scan visits them in.
      std::vector<RowId> ids;
      for (const Value& key : indexed->keys) {
        CACHEPORTAL_ASSIGN_OR_RETURN(std::vector<RowId> hits,
                                     bt.table->IndexLookup(indexed->column, key));
        ids.insert(ids.end(), hits.begin(), hits.end());
      }
      if (indexed->keys.size() > 1) {
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      }
      candidates.reserve(ids.size());
      for (RowId id : ids) {
        auto row = bt.table->rows().find(id);
        if (row == bt.table->rows().end()) {
          return Status::NotFound(StrCat("row ", id, " in table ",
                                         bt.table->schema().name()));
        }
        candidates.push_back(&row->second);
      }
    } else {
      bt.table->BumpScanned(bt.table->size());
      for (const auto& [id, row] : bt.table->rows()) {
        candidates.push_back(&row);
      }
    }
    for (const Row* row : candidates) {
      // Evaluate single-table conjuncts on a composite row holding just
      // this table's slice (resolver treats shorter rows as partial).
      CompositeRow composite(bt.offset + row->size(), Value::Null());
      std::copy(row->begin(), row->end(), composite.begin() + bt.offset);
      CompositeResolver resolver(tables, composite);
      bool pass = true;
      for (const Expression* c : single[pos]) {
        if (c == answered) continue;
        CACHEPORTAL_ASSIGN_OR_RETURN(std::optional<bool> t,
                                     sql::EvalPredicate(*c, resolver));
        if (!t.has_value() || !*t) {
          pass = false;
          break;
        }
      }
      if (pass) out.push_back(std::move(composite));
    }
    return out;
  };

  std::vector<bool> joined(tables.size(), false);
  CACHEPORTAL_ASSIGN_OR_RETURN(std::vector<CompositeRow> current,
                               scan_table(0));
  joined[0] = true;

  // ---- Join remaining tables in FROM order. ----
  for (size_t pos = 1; pos < tables.size(); ++pos) {
    CACHEPORTAL_ASSIGN_OR_RETURN(std::vector<CompositeRow> right,
                                 scan_table(pos));
    const BoundTable& bt = tables[pos];

    // Find a usable equi-join conjunct.
    std::optional<EquiJoin> equi;
    for (const MultiConjunct& mc : multi) {
      equi = AsEquiJoin(*mc.expr, tables, pos, joined);
      if (equi.has_value()) break;
    }

    std::vector<CompositeRow> next;
    if (equi.has_value()) {
      // Hash join: build on the added table's rows.
      std::unordered_multimap<size_t, const CompositeRow*> build;
      build.reserve(right.size());
      for (const CompositeRow& r : right) {
        build.emplace(r[bt.offset + equi->right_col].Hash(), &r);
      }
      for (const CompositeRow& left : current) {
        const Value& key = left[equi->left_slot];
        auto [lo, hi] = build.equal_range(key.Hash());
        for (auto it = lo; it != hi; ++it) {
          const CompositeRow& r = *it->second;
          std::optional<int> cmp =
              key.Compare(r[bt.offset + equi->right_col]);
          if (!cmp.has_value() || *cmp != 0) continue;
          // `left` covers only tables before `pos`, so its size is at most
          // bt.offset; pad to the added table's offset and append its slice.
          CompositeRow merged(left);
          merged.resize(bt.offset, Value::Null());
          merged.insert(merged.end(), r.begin() + bt.offset, r.end());
          next.push_back(std::move(merged));
        }
      }
    } else {
      // Nested loop.
      for (const CompositeRow& left : current) {
        for (const CompositeRow& r : right) {
          CompositeRow merged(left);
          merged.resize(bt.offset, Value::Null());
          merged.insert(merged.end(), r.begin() + bt.offset, r.end());
          next.push_back(std::move(merged));
        }
      }
    }
    joined[pos] = true;
    current = std::move(next);

    // Apply multi-table conjuncts whose tables are now all joined.
    std::vector<CompositeRow> filtered;
    filtered.reserve(current.size());
    for (CompositeRow& row : current) {
      CompositeResolver resolver(tables, row);
      bool pass = true;
      for (const MultiConjunct& mc : multi) {
        bool ready = std::all_of(mc.tables.begin(), mc.tables.end(),
                                 [&](size_t t) { return joined[t]; });
        bool newly = std::any_of(mc.tables.begin(), mc.tables.end(),
                                 [&](size_t t) { return t == pos; });
        if (!ready || !newly) continue;
        CACHEPORTAL_ASSIGN_OR_RETURN(std::optional<bool> t,
                                     sql::EvalPredicate(*mc.expr, resolver));
        if (!t.has_value() || !*t) {
          pass = false;
          break;
        }
      }
      if (pass) filtered.push_back(std::move(row));
    }
    current = std::move(filtered);
  }

  // Pad rows to full width (single-table case leaves them short).
  for (CompositeRow& row : current) {
    row.resize(total_cols, Value::Null());
  }

  // ---- Projection / aggregation. ----
  QueryResult result;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const sql::SelectItem& item = stmt.items[i];
    if (item.star) {
      for (const BoundTable& bt : tables) {
        if (!item.star_table.empty() &&
            !EqualsIgnoreCase(bt.effective_name, item.star_table)) {
          continue;
        }
        for (const ColumnDef& col : bt.table->schema().columns()) {
          result.columns.push_back(col.name);
        }
      }
    } else {
      result.columns.push_back(ItemName(item, i));
    }
  }

  bool has_aggregate =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(), [](const auto& item) {
        return item.expr != nullptr &&
               item.expr->kind() == ExprKind::kFunctionCall &&
               static_cast<const sql::FunctionCallExpr&>(*item.expr)
                   .IsAggregate();
      });

  if (has_aggregate) {
    // Group rows by the GROUP BY key (single global group when empty).
    struct Group {
      Row key;
      std::vector<AggState> states;
      CompositeRow representative;
    };
    std::map<std::string, Group> groups;
    size_t num_aggs = 0;
    for (const auto& item : stmt.items) {
      if (item.expr != nullptr &&
          item.expr->kind() == ExprKind::kFunctionCall) {
        ++num_aggs;
      }
    }
    // HAVING may reference aggregates beyond the select list; they get
    // their own accumulator slots after the select-list ones.
    std::vector<const sql::FunctionCallExpr*> having_aggs;
    if (stmt.having != nullptr) {
      CollectAggregates(*stmt.having, &having_aggs);
    }
    const size_t total_aggs = num_aggs + having_aggs.size();
    for (const CompositeRow& row : current) {
      CompositeResolver resolver(tables, row);
      Row key;
      std::string key_str;
      for (const auto& g : stmt.group_by) {
        CACHEPORTAL_ASSIGN_OR_RETURN(Value v, sql::EvalExpr(*g, resolver));
        key_str += v.ToSqlLiteral();
        key_str += '\x1f';
        key.push_back(std::move(v));
      }
      auto [it, inserted] = groups.try_emplace(key_str);
      Group& group = it->second;
      if (inserted) {
        group.key = std::move(key);
        group.states.resize(total_aggs);
        group.representative = row;
      }
      size_t agg_index = 0;
      for (const auto& item : stmt.items) {
        if (item.expr == nullptr ||
            item.expr->kind() != ExprKind::kFunctionCall) {
          continue;
        }
        const auto& fn =
            static_cast<const sql::FunctionCallExpr&>(*item.expr);
        AggState& state = group.states[agg_index++];
        if (fn.star()) {
          state.Accumulate(Value::Int(1));
        } else if (!fn.args().empty()) {
          CACHEPORTAL_ASSIGN_OR_RETURN(Value v,
                                       sql::EvalExpr(*fn.args()[0], resolver));
          state.Accumulate(v);
        }
      }
      for (size_t h = 0; h < having_aggs.size(); ++h) {
        AggState& state = group.states[num_aggs + h];
        if (having_aggs[h]->star()) {
          state.Accumulate(Value::Int(1));
        } else if (!having_aggs[h]->args().empty()) {
          CACHEPORTAL_ASSIGN_OR_RETURN(
              Value v,
              sql::EvalExpr(*having_aggs[h]->args()[0], resolver));
          state.Accumulate(v);
        }
      }
    }
    // Empty input with no GROUP BY still yields one row of aggregates.
    if (groups.empty() && stmt.group_by.empty()) {
      Group& g = groups[""];
      g.states.resize(total_aggs);
      g.representative.assign(total_cols, Value::Null());
    }
    for (auto& [key_str, group] : groups) {
      CompositeResolver resolver(tables, group.representative);
      if (stmt.having != nullptr) {
        std::vector<Value> agg_values;
        agg_values.reserve(having_aggs.size());
        for (size_t h = 0; h < having_aggs.size(); ++h) {
          agg_values.push_back(
              group.states[num_aggs + h].Finish(having_aggs[h]->name()));
        }
        ExpressionPtr predicate = RewriteAggregatesToValues(
            *stmt.having, having_aggs, agg_values);
        CACHEPORTAL_ASSIGN_OR_RETURN(
            std::optional<bool> keep,
            sql::EvalPredicate(*predicate, resolver));
        if (!keep.has_value() || !*keep) continue;
      }
      Row out;
      size_t agg_index = 0;
      for (const auto& item : stmt.items) {
        if (item.star) {
          return Status::InvalidArgument("'*' not allowed with aggregates");
        }
        if (item.expr->kind() == ExprKind::kFunctionCall) {
          const auto& fn =
              static_cast<const sql::FunctionCallExpr&>(*item.expr);
          out.push_back(group.states[agg_index++].Finish(fn.name()));
        } else {
          CACHEPORTAL_ASSIGN_OR_RETURN(Value v,
                                       sql::EvalExpr(*item.expr, resolver));
          out.push_back(std::move(v));
        }
      }
      result.rows.push_back(std::move(out));
    }
  } else {
    result.rows.reserve(current.size());
    for (const CompositeRow& row : current) {
      CompositeResolver resolver(tables, row);
      Row out;
      for (const auto& item : stmt.items) {
        if (item.star) {
          for (const BoundTable& bt : tables) {
            if (!item.star_table.empty() &&
                !EqualsIgnoreCase(bt.effective_name, item.star_table)) {
              continue;
            }
            size_t n = bt.table->schema().num_columns();
            for (size_t i = 0; i < n; ++i) {
              out.push_back(row[bt.offset + i]);
            }
          }
        } else {
          CACHEPORTAL_ASSIGN_OR_RETURN(Value v,
                                       sql::EvalExpr(*item.expr, resolver));
          out.push_back(std::move(v));
        }
      }
      result.rows.push_back(std::move(out));
    }
  }

  // ---- DISTINCT. ----
  if (stmt.distinct) {
    std::sort(result.rows.begin(), result.rows.end(), RowLess);
    result.rows.erase(std::unique(result.rows.begin(), result.rows.end()),
                      result.rows.end());
  }

  // ---- ORDER BY. ----
  if (!stmt.order_by.empty()) {
    struct Keyed {
      Row keys;
      Row row;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(result.rows.size());
    bool rows_track_composites = !stmt.distinct && !has_aggregate;
    // Pre-resolve order-by expressions to output-column positions (by
    // alias or column name); used when projected rows no longer line up
    // with the composite rows (DISTINCT / aggregates).
    std::vector<int> out_positions(stmt.order_by.size(), -1);
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      const Expression& e = *stmt.order_by[i].expr;
      std::string name;
      if (e.kind() == ExprKind::kColumnRef) {
        name = static_cast<const ColumnRefExpr&>(e).column();
      } else {
        name = sql::ExprToSql(e);
      }
      for (size_t c = 0; c < result.columns.size(); ++c) {
        if (EqualsIgnoreCase(result.columns[c], name)) {
          out_positions[i] = static_cast<int>(c);
          break;
        }
      }
      if (!rows_track_composites && out_positions[i] < 0) {
        return Status::NotSupported(
            StrCat("ORDER BY expression '", name,
                   "' must name an output column when used with DISTINCT "
                   "or aggregates"));
      }
    }
    for (size_t r = 0; r < result.rows.size(); ++r) {
      Keyed k;
      k.row = result.rows[r];
      for (size_t i = 0; i < stmt.order_by.size(); ++i) {
        if (out_positions[i] >= 0) {
          k.keys.push_back(k.row[static_cast<size_t>(out_positions[i])]);
        } else {
          CompositeResolver resolver(tables, current[r]);
          Result<Value> v = sql::EvalExpr(*stmt.order_by[i].expr, resolver);
          k.keys.push_back(v.ok() ? std::move(v).value() : Value::Null());
        }
      }
      keyed.push_back(std::move(k));
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const Keyed& a, const Keyed& b) {
                       for (size_t i = 0; i < stmt.order_by.size(); ++i) {
                         std::optional<int> c = a.keys[i].Compare(b.keys[i]);
                         if (c.has_value() && *c != 0) {
                           return stmt.order_by[i].ascending ? *c < 0 : *c > 0;
                         }
                       }
                       return false;
                     });
    for (size_t r = 0; r < keyed.size(); ++r) {
      result.rows[r] = std::move(keyed[r].row);
    }
  }

  // ---- LIMIT. ----
  if (stmt.limit.has_value() &&
      result.rows.size() > static_cast<size_t>(*stmt.limit)) {
    result.rows.resize(static_cast<size_t>(*stmt.limit));
  }

  return result;
}

}  // namespace cacheportal::db

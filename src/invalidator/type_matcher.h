#ifndef CACHEPORTAL_INVALIDATOR_TYPE_MATCHER_H_
#define CACHEPORTAL_INVALIDATOR_TYPE_MATCHER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "db/database.h"
#include "invalidator/registry.h"
#include "sql/value.h"

namespace cacheportal::invalidator {

/// Relation of a compiled single-column predicate, normalized so the
/// column sits on the left (`$1 > price` compiles as price < $1).
enum class AnchorRel { kEq, kIn, kBetween, kLt, kLtEq, kGt, kGtEq };

/// One comparand of a compiled predicate: a template parameter (its value
/// varies per instance and is read from QueryInstance::bindings) or a
/// constant baked into the template (NULL / boolean literals, which
/// template extraction keeps structural).
struct AnchorOperand {
  int ordinal = 0;      // 1-based $k; 0 means `constant` holds the value.
  sql::Value constant;
};

/// A compiled per-table predicate `col REL operand(s)` extracted from a
/// query type's template: the conjunct every instance of the type applies
/// to the updated table, differing only in bind values. A delta tuple
/// whose `column` value makes this conjunct fold to definite FALSE makes
/// the whole WHERE fold FALSE (FALSE absorbs through nested ANDs), so the
/// instance is provably unaffected by that tuple — the exclusion the
/// BindIndex implements. A fold to NULL does NOT exclude: the analyzer
/// keeps `NULL AND residual` as a residual, so NULL-producing probes must
/// leave the instance a candidate (BindIndex's always-candidate lists).
struct CompiledAnchor {
  std::string table_lower;   // Real table name, lower-cased (delta key).
  std::string column;
  size_t column_index = 0;   // Index of `column` in the table's schema.
  AnchorRel rel = AnchorRel::kEq;
  /// 1 comparand for =,<,<=,>,>=; the list for IN; {low, high} for
  /// BETWEEN.
  std::vector<AnchorOperand> operands;
};

/// Compiles a query type's template once (at first instance registration,
/// when the FROM tables are known to exist) into per-table anchors. A
/// table gets at most one anchor, preferring equality over IN over
/// BETWEEN over open intervals (equality probes are O(1)); a table is
/// only coverable when it appears exactly once in FROM (a self-joined
/// table is unaffected only if the predicate fails for EVERY occurrence,
/// which one column index cannot prove). A top-level equi-join between
/// two such tables whose columns are both INT or both STRING carries an
/// anchor on its column to the side that has none, or a worse one:
/// `SmallT.grp = LargeT.grp AND SmallT.grp = $1` anchors LargeT on
/// `grp = $1` too. Templates the compiler cannot handle — OR-rooted
/// WHERE, NOT, LIKE, <>, expressions over the column — simply produce no
/// anchors: every instance of the type is analyzed, none is pruned.
class TypeMatcher {
 public:
  static TypeMatcher Compile(const QueryType& type,
                             const db::Database& database);

  /// The anchor covering `table_lower`, or nullptr (interpreted path).
  const CompiledAnchor* AnchorFor(const std::string& table_lower) const;

  const std::map<std::string, CompiledAnchor>& anchors() const {
    return anchors_;
  }

  /// True when at least one table is covered by an anchor.
  bool handled() const { return !anchors_.empty(); }

  /// Why compilation produced no anchors (empty when handled()).
  const std::string& fallback_reason() const { return fallback_reason_; }

  /// Resolves an operand against an instance's bind values. Out-of-range
  /// ordinals resolve to NULL (the instance then lands on the
  /// always-candidate lists — sound, never reached for well-formed
  /// templates since bindings has ParameterSlotCount(tmpl) entries).
  static sql::Value OperandValue(const AnchorOperand& operand,
                                 const std::vector<sql::Value>& bindings);

 private:
  std::map<std::string, CompiledAnchor> anchors_;  // By table_lower.
  std::string fallback_reason_;
};

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_TYPE_MATCHER_H_

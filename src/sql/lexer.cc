#include "sql/lexer.h"

#include <cctype>
#include <unordered_set>

#include "common/strings.h"

namespace cacheportal::sql {

namespace {

const std::unordered_set<std::string>& KeywordSet() {
  static const auto& kKeywords = *new std::unordered_set<std::string>{
      "SELECT", "FROM",   "WHERE",  "AND",    "OR",     "NOT",    "INSERT",
      "INTO",   "VALUES", "DELETE", "UPDATE", "SET",    "NULL",   "LIKE",
      "IN",     "BETWEEN", "IS",    "AS",     "ORDER",  "BY",     "ASC",
      "DESC",   "DISTINCT", "TRUE", "FALSE",  "LIMIT",  "JOIN",   "INNER",
      "ON",     "HAVING", "CREATE", "TABLE",  "INDEX",  "COUNT",  "SUM",    "MIN",    "MAX",    "AVG",    "GROUP",
  };
  return kKeywords;
}

/// Length of the longest keyword: a longer word is an identifier.
constexpr size_t kLongestKeyword = 8;  // "DISTINCT"

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentCont(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

bool IsSqlKeyword(const std::string& upper_word) {
  return KeywordSet().contains(upper_word);
}

bool Token::IsKeyword(const char* kw) const {
  return type == TokenType::kKeyword && text == kw;
}

Result<std::vector<Token>> Lexer::Tokenize(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  tokens.reserve(n / 4 + 4);  // About one token per four characters.

  auto push = [&](TokenType type, std::string text, size_t offset) {
    tokens.push_back(Token{type, std::move(text), offset});
  };

  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;
    if (IsIdentStart(c)) {
      while (i < n && IsIdentCont(input[i])) ++i;
      std::string word = input.substr(start, i - start);
      if (word.size() <= kLongestKeyword) {
        std::string upper = word;
        for (char& ch : upper) {
          if (ch >= 'a' && ch <= 'z') ch = static_cast<char>(ch - 'a' + 'A');
        }
        if (IsSqlKeyword(upper)) {
          push(TokenType::kKeyword, std::move(upper), start);
          continue;
        }
      }
      push(TokenType::kIdentifier, std::move(word), start);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      bool is_double = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      if (i < n && input[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(input[i + 1]))) {
        is_double = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      }
      push(is_double ? TokenType::kDoubleLiteral : TokenType::kIntLiteral,
           input.substr(start, i - start), start);
      continue;
    }
    switch (c) {
      case '\'': {
        // String literal; '' is an escaped quote.
        std::string content;
        ++i;
        bool closed = false;
        while (i < n) {
          if (input[i] == '\'') {
            if (i + 1 < n && input[i + 1] == '\'') {
              content += '\'';
              i += 2;
            } else {
              ++i;
              closed = true;
              break;
            }
          } else {
            content += input[i];
            ++i;
          }
        }
        if (!closed) {
          return Status::ParseError(
              StrCat("unterminated string literal at offset ", start));
        }
        push(TokenType::kStringLiteral, std::move(content), start);
        break;
      }
      case '$': {
        ++i;
        size_t num_start = i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
        if (i == num_start) {
          // `$V1`-style named parameters (paper's notation): accept an
          // identifier suffix and keep its text.
          while (i < n && IsIdentCont(input[i])) ++i;
          if (i == num_start) {
            return Status::ParseError(
                StrCat("expected parameter number after '$' at offset ",
                       start));
          }
        }
        push(TokenType::kParameter, input.substr(num_start, i - num_start),
             start);
        break;
      }
      case '?':
        push(TokenType::kParameter, "", start);
        ++i;
        break;
      case ',':
        push(TokenType::kComma, ",", start);
        ++i;
        break;
      case '.':
        push(TokenType::kDot, ".", start);
        ++i;
        break;
      case '(':
        push(TokenType::kLParen, "(", start);
        ++i;
        break;
      case ')':
        push(TokenType::kRParen, ")", start);
        ++i;
        break;
      case '*':
        push(TokenType::kStar, "*", start);
        ++i;
        break;
      case '+':
        push(TokenType::kPlus, "+", start);
        ++i;
        break;
      case '-':
        push(TokenType::kMinus, "-", start);
        ++i;
        break;
      case '/':
        push(TokenType::kSlash, "/", start);
        ++i;
        break;
      case ';':
        push(TokenType::kSemicolon, ";", start);
        ++i;
        break;
      case '=':
        push(TokenType::kEq, "=", start);
        ++i;
        break;
      case '!':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenType::kNotEq, "!=", start);
          i += 2;
        } else {
          return Status::ParseError(
              StrCat("unexpected character '!' at offset ", start));
        }
        break;
      case '<':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenType::kLtEq, "<=", start);
          i += 2;
        } else if (i + 1 < n && input[i + 1] == '>') {
          push(TokenType::kNotEq, "<>", start);
          i += 2;
        } else {
          push(TokenType::kLt, "<", start);
          ++i;
        }
        break;
      case '>':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenType::kGtEq, ">=", start);
          i += 2;
        } else {
          push(TokenType::kGt, ">", start);
          ++i;
        }
        break;
      default:
        return Status::ParseError(
            StrCat("unexpected character '", std::string(1, c),
                   "' at offset ", start));
    }
  }
  tokens.push_back(Token{TokenType::kEof, "", n});
  return tokens;
}

}  // namespace cacheportal::sql

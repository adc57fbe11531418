#include "lexer.hpp"

#include <array>
#include <cctype>
#include <cstddef>
#include <string>

namespace vdc::lint {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// Multi-character punctuation, longest first (maximal munch).
constexpr std::array<std::string_view, 21> kMultiPunct = {
    "<<=", ">>=", "<=>", "...", "->*",                                  // 3 chars
    "::", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "++", "--",   // 2 chars
    "+=", "-=", "*=", "/=", "->",
};
constexpr std::array<std::string_view, 5> kMultiPunct2 = {"%=", "&=", "|=", "^=", ".*"};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    while (pos_ < src_.size()) {
      skip_horizontal_ws();
      if (pos_ >= src_.size()) break;
      const char c = src_[pos_];
      if (c == '\n') {
        advance();
        continue;
      }
      Token tok;
      tok.line = line_;
      tok.col = col_;
      tok.at_line_start = line_fresh_;
      const std::size_t start = pos_;
      if (c == '/' && peek(1) == '/') {
        lex_line_comment();
        tok.kind = TokenKind::kComment;
      } else if (c == '/' && peek(1) == '*') {
        lex_block_comment();
        tok.kind = TokenKind::kComment;
      } else if (c == '"') {
        lex_string(/*raw=*/false);
        tok.kind = TokenKind::kString;
      } else if (c == '\'' && !prev_was_number_) {
        lex_char();
        tok.kind = TokenKind::kChar;
      } else if (digit(c) || (c == '.' && digit(peek(1)))) {
        lex_number();
        tok.kind = TokenKind::kNumber;
      } else if (ident_start(c)) {
        while (pos_ < src_.size() && ident_char(src_[pos_])) advance();
        tok.kind = TokenKind::kIdentifier;
        // Encoding/raw literal prefixes (R"...", u8"...", LR"...", ...) are
        // lexed as an identifier glued to a quote; fold them into one
        // string token.
        const std::string_view prefix = src_.substr(start, pos_ - start);
        if (pos_ < src_.size() && src_[pos_] == '"' && is_literal_prefix(prefix)) {
          lex_string(prefix.find('R') != std::string_view::npos);
          tok.kind = TokenKind::kString;
        }
      } else {
        lex_punct();
        tok.kind = TokenKind::kPunct;
      }
      tok.text = src_.substr(start, pos_ - start);
      prev_was_number_ = tok.kind == TokenKind::kNumber;
      line_fresh_ = false;
      out.push_back(tok);
    }
    Token eof;
    eof.kind = TokenKind::kEof;
    eof.line = line_;
    eof.col = col_;
    out.push_back(eof);
    return out;
  }

 private:
  char peek(std::size_t ahead) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  void advance() {
    if (src_[pos_] == '\n') {
      ++line_;
      col_ = 1;
      line_fresh_ = true;
      prev_was_number_ = false;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void skip_horizontal_ws() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == ' ' || c == '\t' || c == '\r') {
        advance();
      } else if (c == '\\' && peek(1) == '\n') {  // line continuation
        advance();
        advance();
      } else {
        break;
      }
    }
  }

  void lex_line_comment() {
    while (pos_ < src_.size() && src_[pos_] != '\n') advance();
  }

  void lex_block_comment() {
    advance();  // '/'
    advance();  // '*'
    while (pos_ < src_.size()) {
      if (src_[pos_] == '*' && peek(1) == '/') {
        advance();
        advance();
        return;
      }
      advance();
    }
  }

  static bool is_literal_prefix(std::string_view s) {
    return s == "u8" || s == "u" || s == "U" || s == "L" || s == "R" || s == "u8R" ||
           s == "uR" || s == "UR" || s == "LR";
  }

  /// Called with pos_ at the opening quote.
  void lex_string(bool raw) {
    advance();  // opening quote
    if (raw) {
      // R"delim( ... )delim"
      std::string_view delim;
      const std::size_t dstart = pos_;
      while (pos_ < src_.size() && src_[pos_] != '(') advance();
      delim = src_.substr(dstart, pos_ - dstart);
      advance();  // '('
      // reserve + append rather than operator+ chains: GCC 12 reports a
      // false -Wrestrict on the latter at -O2.
      std::string closer;
      closer.reserve(delim.size() + 2);
      closer.append(")").append(delim).append("\"");
      while (pos_ < src_.size()) {
        if (src_.compare(pos_, closer.size(), closer) == 0) {
          for (std::size_t i = 0; i < closer.size(); ++i) advance();
          return;
        }
        advance();
      }
      return;
    }
    while (pos_ < src_.size() && src_[pos_] != '"' && src_[pos_] != '\n') {
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) advance();
      advance();
    }
    if (pos_ < src_.size()) advance();  // closing quote
  }

  void lex_char() {
    advance();  // opening '
    while (pos_ < src_.size() && src_[pos_] != '\'' && src_[pos_] != '\n') {
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) advance();
      advance();
    }
    if (pos_ < src_.size()) advance();  // closing '
  }

  /// pp-number: digits, identifier chars, dots, digit separators, and signs
  /// immediately after a decimal or hex exponent marker.
  void lex_number() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (ident_char(c) || c == '.' || c == '\'') {
        advance();
      } else if ((c == '+' || c == '-') && pos_ > 0 &&
                 (src_[pos_ - 1] == 'e' || src_[pos_ - 1] == 'E' || src_[pos_ - 1] == 'p' ||
                  src_[pos_ - 1] == 'P')) {
        advance();
      } else {
        break;
      }
    }
  }

  void lex_punct() {
    for (const auto& op : kMultiPunct) {
      if (src_.compare(pos_, op.size(), op) == 0) {
        for (std::size_t i = 0; i < op.size(); ++i) advance();
        return;
      }
    }
    for (const auto& op : kMultiPunct2) {
      if (src_.compare(pos_, op.size(), op) == 0) {
        advance();
        advance();
        return;
      }
    }
    advance();
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  bool line_fresh_ = true;
  bool prev_was_number_ = false;  ///< so 1'000 separators never open a char literal
};

}  // namespace

std::vector<Token> tokenize(std::string_view source) { return Lexer(source).run(); }

std::vector<Token> code_tokens(const std::vector<Token>& tokens) {
  std::vector<Token> out;
  out.reserve(tokens.size());
  for (const Token& t : tokens) {
    if (t.kind != TokenKind::kComment) out.push_back(t);
  }
  return out;
}

bool is_float_literal(const Token& token) {
  if (token.kind != TokenKind::kNumber) return false;
  const std::string_view t = token.text;
  const bool hex = t.size() > 1 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X');
  if (hex) return t.find('p') != std::string_view::npos || t.find('P') != std::string_view::npos;
  if (t.find('.') != std::string_view::npos) return true;
  return t.find('e') != std::string_view::npos || t.find('E') != std::string_view::npos;
}

}  // namespace vdc::lint

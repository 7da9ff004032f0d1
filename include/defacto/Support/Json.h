//===- Json.h - Minimal JSON syntax validation -----------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dependency-free JSON toolkit, just enough for the repo's own needs:
///
///  - isValidJson: syntax checking (RFC 8259 grammar) the tests use to
///    assert the trace/stats exporters emit well-formed documents;
///  - parseJson/JsonValue: a small document tree for readers of our own
///    machine-generated output — the evaluation journal loads its JSONL
///    records through it on resume;
///  - jsonQuote: string escaping for the writers.
///
/// Numbers are kept as raw text (the journal round-trips doubles through
/// hexfloat strings, so nothing here ever converts through decimal).
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_SUPPORT_JSON_H
#define DEFACTO_SUPPORT_JSON_H

#include "defacto/Support/Error.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace defacto {

/// True when \p Text is exactly one well-formed JSON value (trailing
/// whitespace permitted). On failure \p Error, when non-null, receives a
/// byte offset and reason.
bool isValidJson(const std::string &Text, std::string *Error = nullptr);

/// One parsed JSON value. Small and concrete: members/elements own their
/// children directly, object member order is preserved, and numbers stay
/// raw text until a caller asks for a conversion.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind ValueKind = Kind::Null;
  bool Boolean = false;
  /// The unescaped string value, or the raw number token.
  std::string Text;
  std::vector<JsonValue> Elements;                       // arrays
  std::vector<std::pair<std::string, JsonValue>> Members; // objects

  bool isObject() const { return ValueKind == Kind::Object; }
  bool isArray() const { return ValueKind == Kind::Array; }
  bool isString() const { return ValueKind == Kind::String; }
  bool isNumber() const { return ValueKind == Kind::Number; }

  /// First member named \p Key; null for non-objects and missing keys.
  const JsonValue *find(const std::string &Key) const;

  /// Member \p Key as a string; \p Default when absent or not a string.
  std::string str(const std::string &Key,
                  const std::string &Default = "") const;

  /// Number/string content parsed by strtod (accepts hexfloat and inf,
  /// the journal's exact double encoding); \p Default when absent.
  double num(const std::string &Key, double Default = 0) const;

  /// Member \p Key parsed as an unsigned 64-bit integer (number or
  /// string content); \p Default when absent or unparsable.
  uint64_t uint(const std::string &Key, uint64_t Default = 0) const;

  /// Member \p Key as a bool; \p Default when absent or not a bool.
  bool boolean(const std::string &Key, bool Default = false) const;
};

/// Parses exactly one JSON value (trailing whitespace permitted).
Expected<JsonValue> parseJson(const std::string &Text);

/// \p S as a quoted JSON string literal (quotes included), escaping
/// control characters, quotes, and backslashes.
std::string jsonQuote(const std::string &S);

} // namespace defacto

#endif // DEFACTO_SUPPORT_JSON_H

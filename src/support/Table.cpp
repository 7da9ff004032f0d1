//===- Table.cpp ----------------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Support/Table.h"

#include <cassert>
#include <charconv>
#include <cstdio>

using namespace defacto;

Table::Table(std::vector<std::string> Header) : Header(std::move(Header)) {
  assert(!this->Header.empty() && "table needs at least one column");
}

void Table::addRow(std::vector<std::string> Row) {
  assert(Row.size() == Header.size() && "row width must match header");
  Rows.push_back(std::move(Row));
}

std::string Table::toString(unsigned Indent) const {
  std::vector<size_t> Widths(Header.size());
  for (size_t C = 0; C != Header.size(); ++C)
    Widths[C] = Header[C].size();
  for (const auto &Row : Rows)
    for (size_t C = 0; C != Row.size(); ++C)
      Widths[C] = std::max(Widths[C], Row[C].size());

  std::string Pad(Indent, ' ');
  auto renderRow = [&](const std::vector<std::string> &Row) {
    std::string Line = Pad;
    for (size_t C = 0; C != Row.size(); ++C) {
      Line += Row[C];
      if (C + 1 != Row.size())
        Line += std::string(Widths[C] - Row[C].size() + 2, ' ');
    }
    Line += '\n';
    return Line;
  };

  std::string Out = renderRow(Header);
  std::string Rule = Pad;
  for (size_t C = 0; C != Widths.size(); ++C) {
    Rule += std::string(Widths[C], '-');
    if (C + 1 != Widths.size())
      Rule += "  ";
  }
  Out += Rule + '\n';
  for (const auto &Row : Rows)
    Out += renderRow(Row);
  return Out;
}

static std::string csvEscape(const std::string &Cell) {
  if (Cell.find_first_of(",\"\n") == std::string::npos)
    return Cell;
  std::string Out = "\"";
  for (char Ch : Cell) {
    if (Ch == '"')
      Out += '"';
    Out += Ch;
  }
  Out += '"';
  return Out;
}

std::string Table::toCsv() const {
  auto renderRow = [](const std::vector<std::string> &Row) {
    std::string Line;
    for (size_t C = 0; C != Row.size(); ++C) {
      Line += csvEscape(Row[C]);
      if (C + 1 != Row.size())
        Line += ',';
    }
    Line += '\n';
    return Line;
  };
  std::string Out = renderRow(Header);
  for (const auto &Row : Rows)
    Out += renderRow(Row);
  return Out;
}

std::string defacto::formatDouble(double Value, unsigned Precision) {
  // std::to_chars prints exactly what "%.*f" prints (the standard defines
  // it so) without printf's arbitrary-precision machinery, which made
  // this the costliest step of a warm exploration's trace text.
  char Buf[64];
  auto [End, Err] = std::to_chars(Buf, Buf + sizeof(Buf) - 1, Value,
                                  std::chars_format::fixed,
                                  static_cast<int>(Precision));
  if (Err == std::errc())
    return std::string(Buf, End);
  std::snprintf(Buf, sizeof(Buf), "%.*f", Precision, Value); // truncates
  return Buf;
}

std::string defacto::formatWithCommas(int64_t Value) {
  std::string Digits = std::to_string(Value < 0 ? -Value : Value);
  std::string Out;
  unsigned Count = 0;
  for (auto It = Digits.rbegin(); It != Digits.rend(); ++It) {
    if (Count != 0 && Count % 3 == 0)
      Out += ',';
    Out += *It;
    ++Count;
  }
  if (Value < 0)
    Out += '-';
  return std::string(Out.rbegin(), Out.rend());
}

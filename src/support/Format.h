//===- support/Format.h - Number and string formatting ----------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Formatting helpers for the reproduction tables. All experiment binaries
/// print paper-style rows; these helpers keep the rendering consistent
/// (thousands separators for counts, fixed precision for scores). Also the
/// one inverse of the enum name functions (parseName).
///
//===----------------------------------------------------------------------===//

#ifndef OPD_SUPPORT_FORMAT_H
#define OPD_SUPPORT_FORMAT_H

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace opd {

/// Renders \p Value with ',' thousands separators, e.g. 62808794 ->
/// "62,808,794".
std::string formatCount(uint64_t Value);

/// Renders \p Value with \p Precision digits after the decimal point.
std::string formatDouble(double Value, unsigned Precision = 2);

/// Renders \p Value as a percentage with \p Precision digits, without the
/// '%' sign (the tables carry the sign in the header), e.g. 0.3388 ->
/// "33.88" for Precision 2.
std::string formatPercent(double Fraction, unsigned Precision = 2);

/// Renders a branch count the way the paper abbreviates MPL values:
/// 1000 -> "1K", 100000 -> "100K", 1500 -> "1.5K", 123 -> "123".
std::string formatAbbrev(uint64_t Value);

/// Sets \p Out to the enumerator among \p Values whose \p Name spelling
/// equals \p Text, ignoring ASCII case; false if none does. The enum's
/// name function stays the only name table.
template <typename Enum>
bool parseName(std::string_view Text, std::initializer_list<Enum> Values,
               const char *(*Name)(Enum), Enum &Out) {
  auto SameLetter = [](char A, char B) {
    return std::tolower(static_cast<unsigned char>(A)) ==
           std::tolower(static_cast<unsigned char>(B));
  };
  for (Enum V : Values) {
    std::string_view Spelling = Name(V);
    if (std::equal(Text.begin(), Text.end(), Spelling.begin(),
                   Spelling.end(), SameLetter)) {
      Out = V;
      return true;
    }
  }
  return false;
}

} // namespace opd

#endif // OPD_SUPPORT_FORMAT_H

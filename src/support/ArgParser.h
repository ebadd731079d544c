//===- support/ArgParser.h - Command-line flag parsing ----------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal command-line flag parser shared by the experiment binaries and
/// examples. Supports `--flag`, `--flag=value`, and `--flag value` forms
/// plus positional arguments; prints a generated --help.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_SUPPORT_ARGPARSER_H
#define OPD_SUPPORT_ARGPARSER_H

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace opd {

/// Reads \p Text as one size: decimal digits with an optional K (x1,000)
/// or M (x1,000,000) suffix and nothing else, computed without
/// wraparound. True with the value in \p Out when it lies in
/// [\p Min, \p Max]; false, leaving \p Out alone, otherwise. The
/// tools' size flags go through here, one value or one list item.
bool readSize(std::string_view Text, uint64_t Min, uint64_t Max,
              uint64_t &Out);

/// Declarative command-line parser. Register flags, then call parse();
/// lookups return the parsed value or the registered default.
class ArgParser {
public:
  ArgParser(std::string ProgramName, std::string Description)
      : ProgramName(std::move(ProgramName)),
        Description(std::move(Description)) {}

  /// Registers a boolean flag (present => true).
  void addFlag(const std::string &Name, const std::string &Help);

  /// Registers a flag that takes a value, with a default.
  void addOption(const std::string &Name, const std::string &Help,
                 const std::string &Default);

  /// Parses argv. Returns false (after printing a diagnostic to stderr) on
  /// an unknown flag or a missing value; returns false with Help set after
  /// printing usage if --help was requested.
  bool parse(int Argc, const char *const *Argv);

  /// True if --help was seen (parse() returns false in that case too).
  bool helpRequested() const { return Help; }

  /// True if boolean flag \p Name was present on the command line.
  bool getFlag(const std::string &Name) const;

  /// Value of option \p Name (parsed value or default).
  const std::string &getOption(const std::string &Name) const;

  /// Value of option \p Name parsed as a long; falls back to \p Fallback
  /// when the text does not parse.
  long getInt(const std::string &Name, long Fallback = 0) const;

  /// Value of option \p Name parsed as a double.
  double getDouble(const std::string &Name, double Fallback = 0.0) const;

  /// Reads option \p Name into \p Out when its whole text is one finite
  /// number above 0 (every tool's --scale goes through here). Otherwise
  /// prints a one-line error naming the flag and the text to stderr and
  /// returns false, leaving \p Out alone.
  bool getPositiveDouble(const std::string &Name, double &Out) const;

  /// Reads option \p Name into \p Out when its text is one size in
  /// [\p Min, \p Max] (readSize's rule); \p Max defaults to \p T's
  /// ceiling. Otherwise sets \p Error to "--<Name> must be <what>, got
  /// '<text>'" — "at most <Max>" for a size past \p Max, else "a
  /// positive integer" (\p Min 1) or "a non-negative integer" (\p Min
  /// 0) — and returns false, leaving \p Out alone.
  template <typename T>
  bool getSize(const std::string &Name, T &Out, std::string &Error,
               uint64_t Min = 1,
               uint64_t Max = std::numeric_limits<T>::max()) const {
    uint64_t Value = 0;
    if (!getSizeIn(Name, Min, Max, Value, Error))
      return false;
    Out = static_cast<T>(Value);
    return true;
  }

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string> &positional() const { return Positional; }

  /// Renders the generated usage text.
  std::string usage() const;

private:
  bool getSizeIn(const std::string &Name, uint64_t Min, uint64_t Max,
                 uint64_t &Out, std::string &Error) const;

  struct Spec {
    std::string Help;
    std::string Default;
    bool IsBool = false;
    bool Seen = false;
    std::string Value;
  };

  std::string ProgramName;
  std::string Description;
  std::map<std::string, Spec> Specs;
  std::vector<std::string> Positional;
  bool Help = false;
};

} // namespace opd

#endif // OPD_SUPPORT_ARGPARSER_H

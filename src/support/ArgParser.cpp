//===- support/ArgParser.cpp - Command-line flag parsing ------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "support/ArgParser.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace opd;

bool opd::readSize(std::string_view Text, uint64_t Min, uint64_t Max,
                   uint64_t &Out) {
  const char *End = Text.data() + Text.size();
  uint64_t Value = 0;
  // Digits only: no sign, no blanks, and an error on 64-bit overflow.
  auto [Next, Err] = std::from_chars(Text.data(), End, Value);
  if (Err != std::errc())
    return false;
  if (Next != End) {
    uint64_t Scale = *Next == 'K' || *Next == 'k'   ? 1000
                     : *Next == 'M' || *Next == 'm' ? 1000000
                                                    : 0;
    if (Scale == 0 || Next + 1 != End ||
        Value > std::numeric_limits<uint64_t>::max() / Scale)
      return false;
    Value *= Scale;
  }
  if (Value < Min || Value > Max)
    return false;
  Out = Value;
  return true;
}

void ArgParser::addFlag(const std::string &Name, const std::string &Help) {
  assert(!Specs.count(Name) && "duplicate flag registration");
  Spec S;
  S.Help = Help;
  S.IsBool = true;
  Specs[Name] = std::move(S);
}

void ArgParser::addOption(const std::string &Name, const std::string &Help,
                          const std::string &Default) {
  assert(!Specs.count(Name) && "duplicate option registration");
  Spec S;
  S.Help = Help;
  S.Default = Default;
  Specs[Name] = std::move(S);
}

bool ArgParser::parse(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      Help = true;
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }
    std::string Name = Arg.substr(2);
    std::string Value;
    bool HasValue = false;
    if (size_t Eq = Name.find('='); Eq != std::string::npos) {
      Value = Name.substr(Eq + 1);
      Name = Name.substr(0, Eq);
      HasValue = true;
    }
    auto It = Specs.find(Name);
    if (It == Specs.end()) {
      std::fprintf(stderr, "error: unknown flag '--%s'\n", Name.c_str());
      return false;
    }
    Spec &S = It->second;
    if (S.IsBool) {
      if (HasValue) {
        std::fprintf(stderr, "error: flag '--%s' does not take a value\n",
                     Name.c_str());
        return false;
      }
      S.Seen = true;
      continue;
    }
    if (!HasValue) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: flag '--%s' requires a value\n",
                     Name.c_str());
        return false;
      }
      Value = Argv[++I];
    }
    S.Seen = true;
    S.Value = std::move(Value);
  }
  return true;
}

bool ArgParser::getFlag(const std::string &Name) const {
  auto It = Specs.find(Name);
  assert(It != Specs.end() && It->second.IsBool && "unregistered flag");
  return It->second.Seen;
}

const std::string &ArgParser::getOption(const std::string &Name) const {
  auto It = Specs.find(Name);
  assert(It != Specs.end() && !It->second.IsBool && "unregistered option");
  return It->second.Seen ? It->second.Value : It->second.Default;
}

long ArgParser::getInt(const std::string &Name, long Fallback) const {
  const std::string &Text = getOption(Name);
  char *End = nullptr;
  long Value = std::strtol(Text.c_str(), &End, 10);
  if (End == Text.c_str() || (End && *End != '\0' && *End != 'K' && *End != 'k'))
    return Fallback;
  if (End && (*End == 'K' || *End == 'k'))
    Value *= 1000;
  return Value;
}

double ArgParser::getDouble(const std::string &Name, double Fallback) const {
  const std::string &Text = getOption(Name);
  char *End = nullptr;
  double Value = std::strtod(Text.c_str(), &End);
  if (End == Text.c_str())
    return Fallback;
  return Value;
}

bool ArgParser::getPositiveDouble(const std::string &Name,
                                  double &Out) const {
  const std::string &Text = getOption(Name);
  char *End = nullptr;
  double Value = std::strtod(Text.c_str(), &End);
  if (Text.empty() || *End != '\0' || !std::isfinite(Value) ||
      !(Value > 0.0)) {
    std::fprintf(stderr,
                 "error: --%s must be a finite number above 0, got '%s'\n",
                 Name.c_str(), Text.c_str());
    return false;
  }
  Out = Value;
  return true;
}

bool ArgParser::getSizeIn(const std::string &Name, uint64_t Min,
                          uint64_t Max, uint64_t &Out,
                          std::string &Error) const {
  const std::string &Text = getOption(Name);
  if (readSize(Text, Min, Max, Out))
    return true;
  uint64_t Unbounded = 0;
  std::string Want =
      readSize(Text, Min, std::numeric_limits<uint64_t>::max(), Unbounded)
          ? "at most " + std::to_string(Max)
      : Min == 0 ? "a non-negative integer"
      : Min == 1 ? "a positive integer"
                 : "an integer of at least " + std::to_string(Min);
  Error = "--" + Name + " must be " + Want + ", got '" + Text + "'";
  return false;
}

std::string ArgParser::usage() const {
  std::string Out = "usage: " + ProgramName + " [flags]\n\n" + Description +
                    "\n\nflags:\n";
  for (const auto &[Name, S] : Specs) {
    Out += "  --" + Name;
    if (!S.IsBool) {
      Out += "=<value>";
      if (!S.Default.empty())
        Out += " (default: " + S.Default + ")";
    }
    Out += "\n      " + S.Help + "\n";
  }
  Out += "  --help\n      print this message\n";
  return Out;
}

//===- obs/TraceExport.cpp - RunTrace (de)serialization ----------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "obs/TraceExport.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

using namespace opd;

//===----------------------------------------------------------------------===//
// Shared rendering helpers
//===----------------------------------------------------------------------===//

namespace {

/// Formats a double with enough digits to round-trip exactly.
std::string exactDouble(double Value) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  return Buf;
}

const char *stateName(PhaseState S) {
  return S == PhaseState::InPhase ? "P" : "T";
}

bool stateFromName(const std::string &Name, PhaseState &S) {
  if (Name == "P")
    S = PhaseState::InPhase;
  else if (Name == "T")
    S = PhaseState::Transition;
  else
    return false;
  return true;
}

/// Name of the event's policy payload: AnchorKind for Anchor events,
/// ResizeKind for WindowResize events, "" otherwise.
std::string policyName(const TraceEvent &E) {
  if (E.Kind == TraceEventKind::Anchor)
    return anchorKindName(static_cast<AnchorKind>(E.Policy));
  if (E.Kind == TraceEventKind::WindowResize)
    return resizeKindName(static_cast<ResizeKind>(E.Policy));
  return "";
}

/// Inverse of policyName for a given event kind.
bool policyFromName(TraceEventKind Kind, const std::string &Name,
                    uint8_t &Policy) {
  if (Kind == TraceEventKind::Anchor) {
    AnchorKind K;
    if (!parseAnchorKind(Name, K))
      return false;
    Policy = static_cast<uint8_t>(K);
    return true;
  }
  if (Kind == TraceEventKind::WindowResize) {
    ResizeKind K;
    if (!parseResizeKind(Name, K))
      return false;
    Policy = static_cast<uint8_t>(K);
    return true;
  }
  Policy = 0;
  return Name.empty();
}

std::string escapeJSON(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size() + 2);
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      Out.push_back(C);
    }
  }
  return Out;
}

IOStatus writeFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return IOStatus::failure("cannot open '" + Path + "' for writing");
  Out << Content;
  if (!Out)
    return IOStatus::failure("write to '" + Path + "' failed");
  return IOStatus::success();
}

IOStatus readFile(const std::string &Path, std::string &Content) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return IOStatus::failure("cannot open '" + Path + "' for reading");
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Content = Buffer.str();
  return IOStatus::success();
}

} // namespace

//===----------------------------------------------------------------------===//
// JSON rendering
//===----------------------------------------------------------------------===//

namespace {

/// Renders one event as a single-line JSON object with kind-specific
/// field names (the schema in docs/OBSERVABILITY.md).
std::string renderEventJSON(const TraceEvent &E) {
  std::string Out = "{\"type\":\"";
  Out += traceEventKindName(E.Kind);
  Out += "\"";
  auto addUInt = [&](const char *Name, uint64_t Value) {
    Out += ",\"";
    Out += Name;
    Out += "\":" + std::to_string(Value);
  };
  auto addStr = [&](const char *Name, const std::string &Value) {
    Out += ",\"";
    Out += Name;
    Out += "\":\"" + escapeJSON(Value) + "\"";
  };
  switch (E.Kind) {
  case TraceEventKind::RunBegin:
    addUInt("elements", E.A);
    addUInt("batch", E.B);
    break;
  case TraceEventKind::RunEnd:
    addUInt("offset", E.Offset);
    break;
  case TraceEventKind::Evaluation:
    addUInt("offset", E.Offset);
    Out += ",\"similarity\":" + exactDouble(E.Similarity);
    addStr("state", stateName(E.Decision));
    Out += ",\"confidence\":" + exactDouble(E.Confidence);
    break;
  case TraceEventKind::Anchor:
    addUInt("offset", E.Offset);
    addUInt("anchor", E.A);
    addStr("policy", policyName(E));
    break;
  case TraceEventKind::WindowResize:
    addUInt("offset", E.Offset);
    addUInt("tw", E.A);
    addUInt("cw", E.B);
    addStr("policy", policyName(E));
    break;
  case TraceEventKind::WindowFlush:
    addUInt("offset", E.Offset);
    addUInt("seed", E.A);
    break;
  case TraceEventKind::PhaseBegin:
    addUInt("offset", E.Offset);
    addUInt("anchor", E.A);
    break;
  case TraceEventKind::PhaseEnd:
    addUInt("offset", E.Offset);
    break;
  }
  Out += "}";
  return Out;
}

} // namespace

std::string opd::renderRunTraceJSON(const RunTrace &Trace) {
  const RunCounters &C = Trace.counters();
  std::string Out = "{\n";
  Out += "  \"version\": 1,\n";
  Out += "  \"detector\": \"" + escapeJSON(Trace.detectorName()) + "\",\n";
  Out += "  \"trace\": {\"elements\": " + std::to_string(Trace.traceSize()) +
         ", \"batch\": " + std::to_string(Trace.batchSize()) + "},\n";
  Out += "  \"counters\": {\"elements\": " + std::to_string(C.Elements) +
         ", \"evaluations\": " + std::to_string(C.Evaluations) +
         ", \"phasesOpened\": " + std::to_string(C.PhasesOpened) +
         ", \"phasesClosed\": " + std::to_string(C.PhasesClosed) +
         ", \"anchors\": " + std::to_string(C.Anchors) +
         ", \"anchorCorrections\": " + std::to_string(C.AnchorCorrections) +
         ", \"windowResizes\": " + std::to_string(C.WindowResizes) +
         ", \"windowFlushes\": " + std::to_string(C.WindowFlushes) + "},\n";

  Out += "  \"phases\": [\n";
  std::vector<PhaseInterval> Phases = Trace.phases();
  std::vector<PhaseInterval> Anchored = Trace.anchoredPhases();
  for (size_t I = 0; I != Phases.size(); ++I) {
    Out += "    {\"begin\": " + std::to_string(Phases[I].Begin) +
           ", \"end\": " + std::to_string(Phases[I].End) +
           ", \"anchoredBegin\": " + std::to_string(Anchored[I].Begin) + "}";
    Out += I + 1 != Phases.size() ? ",\n" : "\n";
  }
  Out += "  ],\n";

  Out += "  \"events\": [\n";
  const std::vector<TraceEvent> &Events = Trace.events();
  for (size_t I = 0; I != Events.size(); ++I) {
    Out += "    " + renderEventJSON(Events[I]);
    Out += I + 1 != Events.size() ? ",\n" : "\n";
  }
  Out += "  ]\n";
  Out += "}\n";
  return Out;
}

IOStatus opd::writeRunTraceJSON(const RunTrace &Trace,
                                const std::string &Path) {
  return writeFile(Path, renderRunTraceJSON(Trace));
}

//===----------------------------------------------------------------------===//
// JSON parsing (minimal, schema-sufficient)
//===----------------------------------------------------------------------===//

namespace {

/// A parsed JSON value. Numbers keep their source token so integer and
/// floating conversions both stay exact.
struct JValue {
  enum class K : uint8_t { Null, Bool, Num, Str, Arr, Obj };
  K Kind = K::Null;
  bool BoolVal = false;
  std::string Text; // number token or decoded string
  std::vector<JValue> Items;
  std::vector<std::pair<std::string, JValue>> Fields;

  const JValue *field(const char *Name) const {
    for (const auto &[Key, Value] : Fields)
      if (Key == Name)
        return &Value;
    return nullptr;
  }
  uint64_t asUInt() const { return std::strtoull(Text.c_str(), nullptr, 10); }
  double asDouble() const { return std::strtod(Text.c_str(), nullptr); }
};

/// Recursive-descent parser over the subset of JSON the writer emits
/// (objects, arrays, strings with simple escapes, numbers, literals).
class JSONParser {
public:
  JSONParser(const char *Begin, const char *End) : P(Begin), End(End) {}

  bool parseDocument(JValue &Out) {
    if (!parseValue(Out))
      return false;
    skipWS();
    return P == End || fail("trailing garbage");
  }

  const std::string &error() const { return Err; }

private:
  bool fail(const char *Message) {
    if (Err.empty())
      Err = Message;
    return false;
  }

  void skipWS() {
    while (P != End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }

  bool consume(char C) {
    skipWS();
    if (P == End || *P != C)
      return false;
    ++P;
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return fail("expected string");
    Out.clear();
    while (P != End && *P != '"') {
      char C = *P++;
      if (C == '\\') {
        if (P == End)
          return fail("unterminated escape");
        char E = *P++;
        switch (E) {
        case '"':
        case '\\':
        case '/':
          Out.push_back(E);
          break;
        case 'n':
          Out.push_back('\n');
          break;
        case 't':
          Out.push_back('\t');
          break;
        default:
          return fail("unsupported escape");
        }
      } else {
        Out.push_back(C);
      }
    }
    if (P == End)
      return fail("unterminated string");
    ++P; // closing quote
    return true;
  }

  bool parseValue(JValue &Out) {
    skipWS();
    if (P == End)
      return fail("unexpected end of input");
    char C = *P;
    if (C == '{')
      return parseObject(Out);
    if (C == '[')
      return parseArray(Out);
    if (C == '"') {
      Out.Kind = JValue::K::Str;
      return parseString(Out.Text);
    }
    if (C == 't' || C == 'f' || C == 'n')
      return parseLiteral(Out);
    return parseNumber(Out);
  }

  bool parseObject(JValue &Out) {
    Out.Kind = JValue::K::Obj;
    consume('{');
    if (consume('}'))
      return true;
    do {
      std::string Key;
      if (!parseString(Key) || !consume(':'))
        return fail("malformed object");
      JValue Value;
      if (!parseValue(Value))
        return false;
      Out.Fields.emplace_back(std::move(Key), std::move(Value));
    } while (consume(','));
    return consume('}') || fail("expected '}'");
  }

  bool parseArray(JValue &Out) {
    Out.Kind = JValue::K::Arr;
    consume('[');
    if (consume(']'))
      return true;
    do {
      JValue Item;
      if (!parseValue(Item))
        return false;
      Out.Items.push_back(std::move(Item));
    } while (consume(','));
    return consume(']') || fail("expected ']'");
  }

  bool parseLiteral(JValue &Out) {
    auto matches = [&](const char *Word) {
      size_t N = std::strlen(Word);
      if (static_cast<size_t>(End - P) < N ||
          std::strncmp(P, Word, N) != 0)
        return false;
      P += N;
      return true;
    };
    if (matches("true")) {
      Out.Kind = JValue::K::Bool;
      Out.BoolVal = true;
      return true;
    }
    if (matches("false")) {
      Out.Kind = JValue::K::Bool;
      return true;
    }
    if (matches("null"))
      return true;
    return fail("bad literal");
  }

  bool parseNumber(JValue &Out) {
    Out.Kind = JValue::K::Num;
    const char *Start = P;
    while (P != End &&
           (std::isdigit(static_cast<unsigned char>(*P)) || *P == '-' ||
            *P == '+' || *P == '.' || *P == 'e' || *P == 'E'))
      ++P;
    if (P == Start)
      return fail("expected number");
    Out.Text.assign(Start, P);
    return true;
  }

  const char *P;
  const char *End;
  std::string Err;
};

/// Decodes one event object of the export schema.
bool decodeEventJSON(const JValue &Obj, TraceEvent &E) {
  const JValue *Type = Obj.field("type");
  if (!Type || Type->Kind != JValue::K::Str ||
      !traceEventKindFromName(Type->Text, E.Kind))
    return false;
  auto getUInt = [&](const char *Name, uint64_t &Out) {
    const JValue *V = Obj.field(Name);
    if (!V || V->Kind != JValue::K::Num)
      return false;
    Out = V->asUInt();
    return true;
  };
  auto getDouble = [&](const char *Name, double &Out) {
    const JValue *V = Obj.field(Name);
    if (!V || V->Kind != JValue::K::Num)
      return false;
    Out = V->asDouble();
    return true;
  };
  auto getPolicy = [&](uint8_t &Out) {
    const JValue *V = Obj.field("policy");
    return V && V->Kind == JValue::K::Str &&
           policyFromName(E.Kind, V->Text, Out);
  };
  switch (E.Kind) {
  case TraceEventKind::RunBegin:
    return getUInt("elements", E.A) && getUInt("batch", E.B);
  case TraceEventKind::RunEnd:
    return getUInt("offset", E.Offset);
  case TraceEventKind::Evaluation: {
    const JValue *State = Obj.field("state");
    return getUInt("offset", E.Offset) &&
           getDouble("similarity", E.Similarity) &&
           getDouble("confidence", E.Confidence) && State &&
           State->Kind == JValue::K::Str &&
           stateFromName(State->Text, E.Decision);
  }
  case TraceEventKind::Anchor:
    return getUInt("offset", E.Offset) && getUInt("anchor", E.A) &&
           getPolicy(E.Policy);
  case TraceEventKind::WindowResize:
    return getUInt("offset", E.Offset) && getUInt("tw", E.A) &&
           getUInt("cw", E.B) && getPolicy(E.Policy);
  case TraceEventKind::WindowFlush:
    return getUInt("offset", E.Offset) && getUInt("seed", E.A);
  case TraceEventKind::PhaseBegin:
    return getUInt("offset", E.Offset) && getUInt("anchor", E.A);
  case TraceEventKind::PhaseEnd:
    return getUInt("offset", E.Offset);
  }
  return false;
}

} // namespace

IOStatus opd::readRunTraceJSON(const std::string &Path, RunTrace &Trace) {
  std::string Content;
  if (IOStatus S = readFile(Path, Content); !S)
    return S;
  JSONParser Parser(Content.data(), Content.data() + Content.size());
  JValue Doc;
  if (!Parser.parseDocument(Doc) || Doc.Kind != JValue::K::Obj)
    return IOStatus::failure(Path + ": JSON parse error: " +
                             (Parser.error().empty() ? "not an object"
                                                     : Parser.error()));
  if (const JValue *Version = Doc.field("version");
      Version && Version->asUInt() != 1)
    return IOStatus::failure(Path + ": unsupported version");
  const JValue *Events = Doc.field("events");
  if (!Events || Events->Kind != JValue::K::Arr)
    return IOStatus::failure(Path + ": missing events array");

  Trace.clear();
  if (const JValue *Detector = Doc.field("detector");
      Detector && Detector->Kind == JValue::K::Str)
    Trace.setDetectorName(Detector->Text);
  for (size_t I = 0; I != Events->Items.size(); ++I) {
    TraceEvent E;
    if (Events->Items[I].Kind != JValue::K::Obj ||
        !decodeEventJSON(Events->Items[I], E))
      return IOStatus::failure(Path + ": bad event at index " +
                               std::to_string(I));
    Trace.replayEvent(E);
  }
  return IOStatus::success();
}

//===----------------------------------------------------------------------===//
// CSV
//===----------------------------------------------------------------------===//

static const char CSVHeader[] =
    "event,offset,similarity,confidence,state,a,b,policy";

std::string opd::renderRunTraceCSV(const RunTrace &Trace) {
  std::string Out = CSVHeader;
  Out += '\n';
  for (const TraceEvent &E : Trace.events()) {
    Out += traceEventKindName(E.Kind);
    Out += ',' + std::to_string(E.Offset) + ',';
    bool IsEval = E.Kind == TraceEventKind::Evaluation;
    if (IsEval)
      Out += exactDouble(E.Similarity);
    Out += ',';
    if (IsEval)
      Out += exactDouble(E.Confidence);
    Out += ',';
    if (IsEval)
      Out += stateName(E.Decision);
    Out += ',' + std::to_string(E.A) + ',' + std::to_string(E.B) + ',';
    Out += policyName(E);
    Out += '\n';
  }
  return Out;
}

IOStatus opd::writeRunTraceCSV(const RunTrace &Trace,
                               const std::string &Path) {
  return writeFile(Path, renderRunTraceCSV(Trace));
}

IOStatus opd::readRunTraceCSV(const std::string &Path, RunTrace &Trace) {
  std::string Content;
  if (IOStatus S = readFile(Path, Content); !S)
    return S;

  Trace.clear();
  std::istringstream In(Content);
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    if (LineNo == 1) {
      if (Line != CSVHeader)
        return IOStatus::failure(Path + ": bad CSV header");
      continue;
    }
    // Split into exactly the 8 schema columns.
    std::vector<std::string> Cols;
    size_t Start = 0;
    while (true) {
      size_t Comma = Line.find(',', Start);
      if (Comma == std::string::npos) {
        Cols.push_back(Line.substr(Start));
        break;
      }
      Cols.push_back(Line.substr(Start, Comma - Start));
      Start = Comma + 1;
    }
    TraceEvent E;
    bool Ok = Cols.size() == 8 && traceEventKindFromName(Cols[0], E.Kind);
    if (Ok) {
      E.Offset = std::strtoull(Cols[1].c_str(), nullptr, 10);
      if (E.Kind == TraceEventKind::Evaluation) {
        E.Similarity = std::strtod(Cols[2].c_str(), nullptr);
        E.Confidence = std::strtod(Cols[3].c_str(), nullptr);
        Ok = stateFromName(Cols[4], E.Decision);
      } else {
        Ok = Cols[2].empty() && Cols[3].empty() && Cols[4].empty();
      }
      E.A = std::strtoull(Cols[5].c_str(), nullptr, 10);
      E.B = std::strtoull(Cols[6].c_str(), nullptr, 10);
      Ok = Ok && policyFromName(E.Kind, Cols[7], E.Policy);
    }
    if (!Ok)
      return IOStatus::failure(Path + ": bad CSV row at line " +
                               std::to_string(LineNo));
    Trace.replayEvent(E);
  }
  return IOStatus::success();
}

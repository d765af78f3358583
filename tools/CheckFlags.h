//===- tools/CheckFlags.h - Check-request flags the tools share -*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line half of a driver::CheckRequest, shared by
/// wiresort-check and wiresort-client so both tools accept the same
/// request flags with the same messages. The library takes a parsed
/// request and never sees argv (src/driver/Check.h); each tool keeps its
/// own usage line and its own flags, and offers every other word to
/// parseCheckArg. parseCount reads every tool's numeric flags.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_TOOLS_CHECKFLAGS_H
#define WIRESORT_TOOLS_CHECKFLAGS_H

#include "wiresort.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

namespace wiresort::tools {

/// Pre-run diagnostics (usage, failpoint-spec trouble) still honor the
/// format parsed so far: JSON renderings go to stdout like every other
/// machine-readable diag, text to stderr.
inline void emitEarly(analysis::Format Fmt, const support::Diag &D) {
  if (Fmt == analysis::Format::Json)
    std::printf("%s\n", support::renderJson(D).c_str());
  else
    std::fprintf(stderr, "%s\n", support::renderText(D, nullptr).c_str());
}

inline void emitEarly(analysis::Format Fmt, const support::Status &Ds) {
  for (const support::Diag &D : Ds)
    emitEarly(Fmt, D);
}

/// Parses \p Text as a count: decimal digits only, with no sign, no
/// blank and nothing after them, whose value fits in \p T. A count read
/// any other way can wrap ("-1" through atoi and a cast is 4294967295
/// threads, through strtoull a 2^64-1 ms timeout) or lose its tail ("5x"
/// reads as 5). \returns std::nullopt when \p Text is no count.
template <typename T = unsigned>
inline std::optional<T> parseCount(std::string_view Text) {
  T Value = 0;
  const char *End = Text.data() + Text.size();
  const auto [Stop, Error] = std::from_chars(Text.data(), End, Value);
  if (Error != std::errc() || Stop != End)
    return std::nullopt;
  return Value;
}

/// Moves \p I onto the value after flag ArgV[I] and copies it into
/// \p Slot. \returns false when the flag is the last word.
inline bool takeValue(int ArgC, char **ArgV, int &I, std::string &Slot) {
  if (I + 1 >= ArgC)
    return false;
  Slot = ArgV[++I];
  return true;
}

/// Parses ArgV[I] as one of the request flags both check tools take, or
/// as the design path, into \p R, moving \p I past a flag's value.
/// \returns "" when the word parsed, or the reason to refuse the command
/// line with (an unknown option, a second design file, a bad value).
inline std::string parseCheckArg(int ArgC, char **ArgV, int &I,
                                 driver::CheckRequest &R) {
  const std::string Arg = ArgV[I];
  std::string Value;
  if (Arg == "--summaries") {
    if (!takeValue(ArgC, ArgV, I, R.SummariesOut))
      return "--summaries expects a file";
  } else if (Arg == "--summary-format") {
    if (!takeValue(ArgC, ArgV, I, Value))
      return "--summary-format expects text or binary";
    if (Value == "binary")
      R.BinarySummaries = true;
    else if (Value == "text")
      R.BinarySummaries = false;
    else
      return "unknown --summary-format '" + Value + "' (text|binary)";
  } else if (Arg == "--check") {
    if (!takeValue(ArgC, ArgV, I, R.CheckPath))
      return "--check expects a file";
  } else if (Arg == "--dot") {
    if (!takeValue(ArgC, ArgV, I, R.DotPath))
      return "--dot expects a file";
  } else if (Arg == "--cache") {
    if (!takeValue(ArgC, ArgV, I, R.Req.CachePath))
      return "--cache expects a file";
  } else if (Arg == "--trace-out") {
    if (!takeValue(ArgC, ArgV, I, R.Req.TraceOutPath))
      return "--trace-out expects a file";
  } else if (Arg == "--format") {
    if (!takeValue(ArgC, ArgV, I, Value))
      return "--format expects text or json";
    if (Value == "json")
      R.Req.OutputFormat = analysis::Format::Json;
    else if (Value == "text")
      R.Req.OutputFormat = analysis::Format::Text;
    else
      return "unknown --format '" + Value + "' (text|json)";
  } else if (Arg == "--timeout-ms") {
    if (!takeValue(ArgC, ArgV, I, Value))
      return "--timeout-ms expects milliseconds";
    const std::optional<uint64_t> Ms = parseCount<uint64_t>(Value);
    if (!Ms || *Ms == 0)
      return "--timeout-ms expects a positive millisecond count";
    R.Req.TimeoutMs = *Ms;
  } else if (Arg == "--failpoints") {
    if (!takeValue(ArgC, ArgV, I, R.Req.FailpointSpec))
      return "--failpoints expects site=mode,...";
  } else if (Arg == "--fault-seed") {
    const std::optional<uint64_t> Seed =
        takeValue(ArgC, ArgV, I, Value) ? parseCount<uint64_t>(Value)
                                        : std::nullopt;
    if (!Seed)
      return "--fault-seed expects a number";
    R.Req.FaultSeed = *Seed;
  } else if (Arg == "--quiet") {
    R.Quiet = true;
  } else if (Arg == "--depth") {
    R.ShowDepth = true;
  } else if (!Arg.empty() && Arg[0] == '-') {
    return "unknown option '" + Arg + "'";
  } else if (R.DesignPath.empty()) {
    R.DesignPath = Arg;
  } else {
    return "more than one design file";
  }
  return "";
}

} // namespace wiresort::tools

#endif // WIRESORT_TOOLS_CHECKFLAGS_H

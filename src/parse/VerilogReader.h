//===- parse/VerilogReader.h - Structural Verilog import --------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reader for the structural/RTL Verilog-2001 subset the evaluation
/// corpora are written in, so designs can be analyzed directly at the
/// HDL level — the paper's intended mode of use ("we expect the user to
/// write their designs in ... a high-level HDL that can be analysed
/// directly", Section 5.4) — rather than via synthesized BLIF.
///
/// Supported subset:
///  * modules with ANSI or classic port declarations (a classic header
///    sets the port order, and every port must be both listed and
///    declared `input`/`output`), `wire`/`reg` declarations with ranges
///    (widths up to 64), optional reg initializers;
///  * continuous assignments over expressions with `~ ! & | ^ && ||
///    == != < <= > >= + - << >> ?:`, bit/part selects, concatenation,
///    sized/unsized literals;
///  * `always @(posedge clk)` blocks of nonblocking whole-wire
///    assignments (each becomes a register);
///  * module instantiation with named port connections.
///
/// Out of scope (rejected with a diagnostic): behavioral constructs
/// (`if`/`case` inside always), partial (bit-select) assignment targets,
/// multi-dimensional arrays/memories, parameters, and generate blocks.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_PARSE_VERILOGREADER_H
#define WIRESORT_PARSE_VERILOGREADER_H

#include "ir/Design.h"
#include "support/Deadline.h"
#include "support/Diag.h"

#include <string>

namespace wiresort::parse {

/// A parsed Verilog file: one module definition per `module`, plus the
/// id of the first one (which the writer emits as top).
struct VerilogFile {
  ir::Design Design;
  ir::ModuleId Top = ir::InvalidId;
};

/// Parses Verilog text. On malformed input the result carries a
/// WS211_VERILOG_LEX / WS212_VERILOG_SYNTAX diagnostic — or
/// WS213_VERILOG_UNSUPPORTED for constructs outside the structural
/// subset — whose SrcLoc gives the 1-based line:col (file field set to
/// \p FileName); the result validates on success. Forward references
/// between modules are allowed; a second module of the same name is
/// refused.
///
/// An active \p DL is polled between module shells and bodies; when it
/// fires the parse stops with a WS601_CANCELLED diagnostic locating
/// where it stopped (docs/ROBUSTNESS.md). A null \p DL never cancels.
support::Expected<VerilogFile>
parseVerilog(const std::string &Text, const std::string &FileName = "",
             const support::Deadline *DL = nullptr);

} // namespace wiresort::parse

#endif // WIRESORT_PARSE_VERILOGREADER_H

//===- analysis/SummaryIO.h - Summary (de)serialization ---------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A plain-text sidecar format for module interface summaries, so sorts
/// inferred once at module design time (Stage 1) can ship alongside a
/// module — including opaque/encrypted IP whose internals are never
/// shared (Section 4's ascription scenario). One module per block:
///
/// \code
/// module fifo_fwd_w8_d4
///   input data_i to-port {data_o}
///   input v_i to-port {data_o, v_o}
///   input yumi_i to-sync indirect
///   output data_o from-port {data_i, v_i}
///   output v_o from-port {v_i}
///   output ready_o from-sync indirect
/// end
/// \endcode
///
/// Ports are referenced by name, making the files stable across wire-id
/// renumbering. parseSummaries() resolves them against the module's
/// interface and cross-checks the two directions for consistency (an
/// input's output-port-set must invert to the outputs' input-port-sets).
///
/// The same information also travels as a wire-format binary stream
/// (writeSummariesBinary/readSummariesBinary — docs/FORMATS.md): one
/// checksummed ModuleSummary record per module, still name-based, a
/// fraction of the text parse cost. The two formats are sniffable by
/// their first byte (readSummariesAny) and round-trip byte-identically
/// through each other.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_ANALYSIS_SUMMARYIO_H
#define WIRESORT_ANALYSIS_SUMMARYIO_H

#include "analysis/Summary.h"
#include "ir/Design.h"
#include "support/Diag.h"
#include "support/Wire.h"

#include <map>
#include <string>

namespace wiresort::analysis {

/// Serializes the summaries of every module of \p D present in
/// \p Summaries, in module-id order.
std::string writeSummaries(const ir::Design &D,
                           const std::map<ir::ModuleId, ModuleSummary>
                               &Summaries);

/// Parses summary blocks and resolves them against same-named modules of
/// \p D (modules absent from the text are simply not populated).
/// On malformed or inconsistent input the result carries a
/// WS221_SUMMARY_SYNTAX diagnostic whose location names \p FileName and
/// the offending line.
support::Expected<std::map<ir::ModuleId, ModuleSummary>>
parseSummaries(const std::string &Text, const ir::Design &D,
               const std::string &FileName = "");

/// Serializes \p Summaries as a binary wire stream (wire format v1,
/// StreamKind::Summaries — docs/FORMATS.md): one name-based
/// ModuleSummary record per module in module-id order, every record
/// length-prefixed and FNV-1a-checksummed. Same information as
/// writeSummaries, a fraction of the parse cost.
std::string writeSummariesBinary(const ir::Design &D,
                                 const std::map<ir::ModuleId, ModuleSummary>
                                     &Summaries);

/// Inverse of writeSummariesBinary, resolving port names against \p D
/// with the same cross-checks as the text parser. Malformed framing,
/// checksum mismatches, truncation, and inconsistent summaries all
/// carry a WS221_SUMMARY_SYNTAX diagnostic naming \p FileName and the
/// damaged record's byte offset.
support::Expected<std::map<ir::ModuleId, ModuleSummary>>
readSummariesBinary(const std::string &Bytes, const ir::Design &D,
                    const std::string &FileName = "");

/// True when \p Bytes begins with the wire sniff byte (0xD7) — i.e. a
/// binary stream, never valid sidecar text.
bool isWireData(const std::string &Bytes);

/// Sniffs \p Bytes and dispatches to parseSummaries or
/// readSummariesBinary, so `.wsort` consumers accept either format.
support::Expected<std::map<ir::ModuleId, ModuleSummary>>
readSummariesAny(const std::string &Bytes, const ir::Design &D,
                 const std::string &FileName = "");

namespace detail {

/// The name-based module-summary body codec shared by ModuleSummary
/// records and CacheEntry payloads (docs/FORMATS.md). encode appends to
/// the writer's current record; decode resolves against \p D and runs
/// the same consistency cross-checks as the text parser, reporting the
/// failure in \p Why. \p Modules indexes \p D; a reader builds it once
/// and passes it to every record it decodes.
void encodeSummaryBody(support::wire::Writer &W, const ir::Module &M,
                       const ModuleSummary &S);
bool decodeSummaryBody(support::wire::Reader::Cursor &C,
                       const ir::Design &D, const ir::ModuleIndex &Modules,
                       ModuleSummary &Out, std::string &Why);

} // namespace detail

} // namespace wiresort::analysis

#endif // WIRESORT_ANALYSIS_SUMMARYIO_H

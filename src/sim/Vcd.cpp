//===- sim/Vcd.cpp - Value-change-dump tracing ----------------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "sim/Vcd.h"

#include <sstream>

using namespace wiresort;
using namespace wiresort::ir;
using namespace wiresort::sim;

VcdTrace::VcdTrace(const Module &M, std::vector<WireId> Signals)
    : M(&M), Signals(std::move(Signals)) {
  if (this->Signals.empty()) {
    for (WireId In : M.Inputs)
      this->Signals.push_back(In);
    for (WireId Out : M.Outputs)
      this->Signals.push_back(Out);
  }
  Last.assign(this->Signals.size(), 0);
  Seen.assign(this->Signals.size(), false);
}

std::string VcdTrace::idFor(size_t Index) {
  // Printable identifier alphabet per the VCD spec: '!' (33) to '~'
  // (126), little-endian multi-character for large indices.
  std::string Id;
  do {
    Id.push_back(static_cast<char>(33 + Index % 94));
    Index /= 94;
  } while (Index != 0);
  return Id;
}

void VcdTrace::sample(const Simulator &S, uint64_t Time) {
  std::ostringstream OS;
  bool AnyChange = false;
  for (size_t I = 0; I != Signals.size(); ++I) {
    uint64_t Value = S.value(Signals[I]);
    if (Seen[I] && Value == Last[I])
      continue;
    if (!AnyChange) {
      OS << '#' << Time << '\n';
      AnyChange = true;
    }
    const Wire &W = M->Wires[Signals[I]];
    if (W.Width == 1) {
      OS << (Value & 1) << idFor(I) << '\n';
    } else {
      OS << 'b';
      for (uint16_t Bit = W.Width; Bit-- > 0;)
        OS << ((Value >> Bit) & 1);
      OS << ' ' << idFor(I) << '\n';
    }
    Last[I] = Value;
    Seen[I] = true;
  }
  Body += OS.str();
}

std::string VcdTrace::str() const {
  std::ostringstream OS;
  OS << "$timescale 1ns $end\n$scope module " << M->Name << " $end\n";
  for (size_t I = 0; I != Signals.size(); ++I) {
    const WireView W = M->wire(Signals[I]);
    // VCD identifiers must not contain spaces; wire names may contain
    // '[]' which viewers accept.
    OS << "$var wire " << W.Width << ' ' << idFor(I) << ' ' << W.Name
       << " $end\n";
  }
  OS << "$upscope $end\n$enddefinitions $end\n" << Body;
  return OS.str();
}

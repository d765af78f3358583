//===- tests/analysis/SortInferenceTest.cpp - Stage-1 inference tests -----===//
//
// Part of the wiresort project. Validates the paper's worked examples:
// Figure 4's output-port-set/input-port-set computation and the Table 1
// sorts of the FIFO, PISO, SIPO, and cache DMA generators, plus the
// successor order of the combinational graph inference walks.
//
//===----------------------------------------------------------------------===//

#include "analysis/SortInference.h"

#include "analysis/Reachability.h"
#include "gen/CacheDma.h"
#include "gen/Catalog.h"
#include "gen/Fifo.h"
#include "gen/ShiftReg.h"
#include "ir/Builder.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

namespace {

/// Infers the summary of a standalone module.
ModuleSummary summarize(Module M) {
  Design D;
  ModuleId Id = D.addModule(std::move(M));
  std::map<ModuleId, ModuleSummary> Out;
  support::Status Loop = analyzeDesign(D, Out);
  EXPECT_FALSE(Loop.hasError()) << Loop.describe();
  return Out.at(Id);
}

/// Builds Figure 4's module: w1..w3 feed registers; w4 combinationally
/// reaches w2out; w1out comes straight from a register.
Module figure4() {
  Builder B("fig4");
  V W1 = B.input("w1", 1);
  V W2 = B.input("w2", 1);
  V W3 = B.input("w3", 1);
  V W4 = B.input("w4", 1);
  // Register absorbing w1..w3 through a gate.
  V G = B.andv(B.andv(W1, W2), W3);
  V R1 = B.reg(G, "r1");
  V R2 = B.reg(R1, "r2");
  // w1out: fed directly from a register (from-sync-direct).
  B.output("w1out", R2);
  // w2out: combinational in w4 and the register.
  B.output("w2out", B.orv(W4, R1));
  return B.finish();
}

std::vector<std::string> names(const Module &M,
                               const std::vector<WireId> &Ports) {
  std::vector<std::string> Out;
  for (WireId W : Ports)
    Out.push_back(M.wire(W).Name);
  return Out;
}

} // namespace

TEST(SortInferenceTest, Figure4PortSets) {
  Module M = figure4();
  Design D;
  ModuleId Id = D.addModule(M);
  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(D, Out).hasError());
  const ModuleSummary &S = Out.at(Id);
  const Module &Def = D.module(Id);

  // "The output-port-set of input w4in is {w2out} and the empty set for
  // the other inputs."
  EXPECT_EQ(names(Def, S.outputPortSet(Def.findPort("w4"))),
            std::vector<std::string>{"w2out"});
  for (const char *In : {"w1", "w2", "w3"})
    EXPECT_TRUE(S.outputPortSet(Def.findPort(In)).empty()) << In;

  // "The input-port-set of w2out is {w4in} and the empty set for w1out."
  EXPECT_EQ(names(Def, S.inputPortSet(Def.findPort("w2out"))),
            std::vector<std::string>{"w4"});
  EXPECT_TRUE(S.inputPortSet(Def.findPort("w1out")).empty());

  // Sorts follow: w1..w3 to-sync, w4 to-port, w1out from-sync, w2out
  // from-port.
  EXPECT_EQ(S.sortOf(Def.findPort("w1")), Sort::ToSync);
  EXPECT_EQ(S.sortOf(Def.findPort("w4")), Sort::ToPort);
  EXPECT_EQ(S.sortOf(Def.findPort("w1out")), Sort::FromSync);
  EXPECT_EQ(S.sortOf(Def.findPort("w2out")), Sort::FromPort);

  // Section 3.7: "wire w1out could thus be labelled from-sync-direct".
  EXPECT_EQ(S.subSortOf(Def.findPort("w1out")), SubSort::Direct);
  // w2out is from-port, so no subsort.
  EXPECT_EQ(S.subSortOf(Def.findPort("w2out")), SubSort::None);
}

TEST(SortInferenceTest, NormalFifoIsAllSync) {
  // Table 1 first row: every FIFO port is TS/FS with empty sets.
  Module M = gen::makeFifo({32, 3, /*Forwarding=*/false});
  ModuleSummary S = summarize(M);
  Design D;
  ModuleId Id = D.addModule(std::move(M));
  const Module &Def = D.module(Id);
  for (const char *In : {"data_i", "v_i", "yumi_i"})
    EXPECT_EQ(S.sortOf(Def.findPort(In)), Sort::ToSync) << In;
  for (const char *Out : {"data_o", "v_o", "ready_o"})
    EXPECT_EQ(S.sortOf(Def.findPort(Out)), Sort::FromSync) << Out;
}

TEST(SortInferenceTest, ForwardingFifoCouplesEndpoints) {
  // Figure 2: valid_o = (count > 0) or (valid_i and ready_o).
  Module M = gen::makeFifo({32, 3, /*Forwarding=*/true});
  Design D;
  ModuleId Id = D.addModule(std::move(M));
  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(D, Out).hasError());
  const ModuleSummary &S = Out.at(Id);
  const Module &Def = D.module(Id);

  EXPECT_EQ(S.sortOf(Def.findPort("v_i")), Sort::ToPort);
  EXPECT_EQ(S.sortOf(Def.findPort("data_i")), Sort::ToPort);
  EXPECT_EQ(S.sortOf(Def.findPort("v_o")), Sort::FromPort);
  EXPECT_EQ(S.sortOf(Def.findPort("data_o")), Sort::FromPort);
  // ready_o still comes only from the count register.
  EXPECT_EQ(S.sortOf(Def.findPort("ready_o")), Sort::FromSync);
  // yumi_i only moves pointers (state).
  EXPECT_EQ(S.sortOf(Def.findPort("yumi_i")), Sort::ToSync);

  // v_i combinationally reaches v_o.
  auto VSet = names(Def, S.outputPortSet(Def.findPort("v_i")));
  EXPECT_NE(std::find(VSet.begin(), VSet.end(), "v_o"), VSet.end());
}

TEST(SortInferenceTest, PisoMatchesTable1) {
  // Table 1: valid_i TS, data_i TS, yumi_i TP {ready_o}; valid_o FS,
  // data_o FS, ready_o FP {yumi_i}.
  Module M = gen::makePiso({4, 8, /*Fixed=*/false});
  Design D;
  ModuleId Id = D.addModule(std::move(M));
  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(D, Out).hasError());
  const ModuleSummary &S = Out.at(Id);
  const Module &Def = D.module(Id);

  EXPECT_EQ(S.sortOf(Def.findPort("valid_i")), Sort::ToSync);
  EXPECT_EQ(S.sortOf(Def.findPort("data_i")), Sort::ToSync);
  EXPECT_EQ(S.sortOf(Def.findPort("yumi_i")), Sort::ToPort);
  EXPECT_EQ(names(Def, S.outputPortSet(Def.findPort("yumi_i"))),
            std::vector<std::string>{"ready_o"});
  EXPECT_EQ(S.sortOf(Def.findPort("valid_o")), Sort::FromSync);
  EXPECT_EQ(S.sortOf(Def.findPort("data_o")), Sort::FromSync);
  EXPECT_EQ(S.sortOf(Def.findPort("ready_o")), Sort::FromPort);
  EXPECT_EQ(names(Def, S.inputPortSet(Def.findPort("ready_o"))),
            std::vector<std::string>{"yumi_i"});
}

TEST(SortInferenceTest, FixedPisoIsAllSync) {
  // The post-fix PISO (Section 5.1's upstream repair): yumi_i is now
  // to-sync and ready_o from-sync.
  Module M = gen::makePiso({4, 8, /*Fixed=*/true});
  Design D;
  ModuleId Id = D.addModule(std::move(M));
  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(D, Out).hasError());
  const ModuleSummary &S = Out.at(Id);
  const Module &Def = D.module(Id);
  EXPECT_EQ(S.sortOf(Def.findPort("yumi_i")), Sort::ToSync);
  EXPECT_EQ(S.sortOf(Def.findPort("ready_o")), Sort::FromSync);
}

TEST(SortInferenceTest, SipoMatchesTable1) {
  // Table 1: yumi_cnt_i TS; valid_i TP {valid_o}; data_i TP {data_o};
  // ready_o FS; valid_o FP {valid_i}; data_o FP {data_i}.
  Module M = gen::makeSipo({4, 8});
  Design D;
  ModuleId Id = D.addModule(std::move(M));
  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(D, Out).hasError());
  const ModuleSummary &S = Out.at(Id);
  const Module &Def = D.module(Id);

  EXPECT_EQ(S.sortOf(Def.findPort("yumi_cnt_i")), Sort::ToSync);
  EXPECT_EQ(S.sortOf(Def.findPort("valid_i")), Sort::ToPort);
  EXPECT_EQ(names(Def, S.outputPortSet(Def.findPort("valid_i"))),
            std::vector<std::string>{"valid_o"});
  EXPECT_EQ(S.sortOf(Def.findPort("data_i")), Sort::ToPort);
  EXPECT_EQ(names(Def, S.outputPortSet(Def.findPort("data_i"))),
            std::vector<std::string>{"data_o"});
  EXPECT_EQ(S.sortOf(Def.findPort("ready_o")), Sort::FromSync);
  EXPECT_EQ(names(Def, S.inputPortSet(Def.findPort("valid_o"))),
            std::vector<std::string>{"valid_i"});
  EXPECT_EQ(names(Def, S.inputPortSet(Def.findPort("data_o"))),
            std::vector<std::string>{"data_i"});
}

TEST(SortInferenceTest, CacheDmaMatchesTable1) {
  Module M = gen::makeCacheDma({32, 16, 4, 3});
  Design D;
  ModuleId Id = D.addModule(std::move(M));
  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(D, Out).hasError());
  const ModuleSummary &S = Out.at(Id);
  const Module &Def = D.module(Id);

  auto expectSort = [&](const char *Port, Sort Expected) {
    EXPECT_EQ(S.sortOf(Def.findPort(Port)), Expected) << Port;
  };
  // Inputs (Table 1).
  expectSort("data_mem_data_i", Sort::ToSync);
  expectSort("dma_data_i", Sort::ToSync);
  expectSort("dma_data_v_i", Sort::ToSync);
  expectSort("dma_data_yumi_i", Sort::ToSync);
  expectSort("dma_pkt_yumi_i", Sort::ToPort);
  expectSort("dma_way_i", Sort::ToPort);
  expectSort("dma_addr_i", Sort::ToPort);
  expectSort("dma_cmd_i", Sort::ToPort);
  // Outputs (Table 1).
  expectSort("data_mem_data_o", Sort::FromSync);
  expectSort("dma_data_o", Sort::FromSync);
  expectSort("dma_data_v_o", Sort::FromSync);
  expectSort("dma_data_ready_o", Sort::FromSync);
  expectSort("dma_pkt_v_o", Sort::FromPort);
  expectSort("data_mem_addr_o", Sort::FromPort);
  expectSort("data_mem_v_o", Sort::FromPort);
  expectSort("data_mem_w_mask_o", Sort::FromPort);
  expectSort("dma_pkt_o", Sort::FromPort);
  expectSort("done_o", Sort::FromPort);
  expectSort("data_mem_w_o", Sort::FromSync);
  expectSort("dma_evict_o", Sort::FromSync);
  expectSort("snoop_word_o", Sort::FromSync);

  // Spot-check the port sets quoted in Table 1.
  EXPECT_EQ(names(Def, S.outputPortSet(Def.findPort("dma_pkt_yumi_i"))),
            std::vector<std::string>{"done_o"});
  EXPECT_EQ(names(Def, S.outputPortSet(Def.findPort("dma_way_i"))),
            std::vector<std::string>{"data_mem_w_mask_o"});
  auto AddrSet = names(Def, S.outputPortSet(Def.findPort("dma_addr_i")));
  EXPECT_EQ(AddrSet,
            (std::vector<std::string>{"data_mem_addr_o", "dma_pkt_o"}));
  auto CmdSet = names(Def, S.outputPortSet(Def.findPort("dma_cmd_i")));
  std::sort(CmdSet.begin(), CmdSet.end());
  EXPECT_EQ(CmdSet, (std::vector<std::string>{"data_mem_v_o", "dma_pkt_o",
                                              "dma_pkt_v_o", "done_o"}));
  auto DoneSet = names(Def, S.inputPortSet(Def.findPort("done_o")));
  std::sort(DoneSet.begin(), DoneSet.end());
  EXPECT_EQ(DoneSet,
            (std::vector<std::string>{"dma_cmd_i", "dma_pkt_yumi_i"}));
}

TEST(SortInferenceTest, SubsortsDirectVsIndirect) {
  // addr_stage: raddr_o is from-sync-direct (straight from a register).
  {
    Module M = gen::makeAddrStage(8);
    Design D;
    ModuleId Id = D.addModule(std::move(M));
    std::map<ModuleId, ModuleSummary> Out;
    ASSERT_FALSE(analyzeDesign(D, Out).hasError());
    const Module &Def = D.module(Id);
    EXPECT_EQ(Out.at(Id).subSortOf(Def.findPort("raddr_o")),
              SubSort::Direct);
    // next_i feeds the register through a mux: to-sync-indirect.
    EXPECT_EQ(Out.at(Id).subSortOf(Def.findPort("next_i")),
              SubSort::Indirect);
  }
  // A module with logic after the register is from-sync-indirect.
  {
    Builder B("after_logic");
    V A = B.input("a", 8);
    V R = B.reg(A, "r");
    B.output("y", B.notv(R));
    Design D;
    ModuleId Id = D.addModule(B.finish());
    std::map<ModuleId, ModuleSummary> Out;
    ASSERT_FALSE(analyzeDesign(D, Out).hasError());
    const Module &Def = D.module(Id);
    EXPECT_EQ(Out.at(Id).sortOf(Def.findPort("y")), Sort::FromSync);
    EXPECT_EQ(Out.at(Id).subSortOf(Def.findPort("y")), SubSort::Indirect);
    // a feeds the register directly (no gate): to-sync-direct.
    EXPECT_EQ(Out.at(Id).subSortOf(Def.findPort("a")), SubSort::Direct);
  }
}

TEST(SortInferenceTest, BufChainIntoRegisterIsToSyncDirect) {
  // Buf nets are transparent: the walk goes through both to the D pin.
  Builder B("buf_chain");
  V A = B.input("a", 4);
  B.output("y", B.reg(B.buf(B.buf(A)), "r"));
  Module M = B.finish();
  ModuleSummary S = summarize(M);
  EXPECT_EQ(S.sortOf(M.findPort("a")), Sort::ToSync);
  EXPECT_EQ(S.subSortOf(M.findPort("a")), SubSort::Direct);
}

TEST(SortInferenceTest, LogicAfterABufIsToSyncIndirect) {
  // The walk passes the Buf and stops at the Not.
  Builder B("buf_not");
  V A = B.input("a", 4);
  B.output("y", B.reg(B.notv(B.buf(A)), "r"));
  Module M = B.finish();
  ModuleSummary S = summarize(M);
  EXPECT_EQ(S.sortOf(M.findPort("a")), Sort::ToSync);
  EXPECT_EQ(S.subSortOf(M.findPort("a")), SubSort::Indirect);
}

TEST(SortInferenceTest, AsyncReadIntoRegisterIsToSyncIndirect) {
  // The read address reaches only a register, through the asynchronous
  // read: to-sync, but through combinational logic. The write data goes
  // straight into the array.
  Builder B("async_to_reg");
  V RAddr = B.input("raddr", 4);
  V WAddr = B.input("waddr", 4);
  V WData = B.input("wdata", 8);
  V Wen = B.input("wen", 1);
  V RData = B.memory("m", /*SyncRead=*/false, RAddr, WAddr, WData, Wen);
  B.output("y", B.reg(RData, "r"));
  Design D;
  ModuleId Id = D.addModule(B.finish());
  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(D, Out).hasError());
  const Module &Def = D.module(Id);
  const ModuleSummary &S = Out.at(Id);
  EXPECT_EQ(S.sortOf(Def.findPort("raddr")), Sort::ToSync);
  EXPECT_EQ(S.subSortOf(Def.findPort("raddr")), SubSort::Indirect);
  EXPECT_EQ(S.sortOf(Def.findPort("wdata")), Sort::ToSync);
  EXPECT_EQ(S.subSortOf(Def.findPort("wdata")), SubSort::Direct);
}

TEST(SortInferenceTest, InstanceInputsPassOnTheirSubsorts) {
  // The child's a feeds a register directly and its b through a Not. In
  // the parent, p reaches a through a Buf and stays direct; q is bound
  // straight to b and takes its indirection.
  Design D;
  ModuleId Child;
  {
    Builder B("child");
    V A = B.input("a", 1);
    V Bi = B.input("b", 1);
    B.output("ya", B.reg(A, "ra"));
    B.output("yb", B.reg(B.notv(Bi), "rb"));
    Child = D.addModule(B.finish());
  }
  Builder B("parent");
  V P = B.input("p", 1);
  V Q = B.input("q", 1);
  auto Outs = B.instantiate(D, Child, "u", {{"a", B.buf(P)}, {"b", Q}});
  B.output("ya", Outs.at("ya"));
  B.output("yb", Outs.at("yb"));
  ModuleId Parent = D.addModule(B.finish());

  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(D, Out).hasError());
  const Module &ChildDef = D.module(Child);
  EXPECT_EQ(Out.at(Child).subSortOf(ChildDef.findPort("a")), SubSort::Direct);
  EXPECT_EQ(Out.at(Child).subSortOf(ChildDef.findPort("b")),
            SubSort::Indirect);
  const Module &Def = D.module(Parent);
  const ModuleSummary &S = Out.at(Parent);
  EXPECT_EQ(S.sortOf(Def.findPort("p")), Sort::ToSync);
  EXPECT_EQ(S.subSortOf(Def.findPort("p")), SubSort::Direct);
  EXPECT_EQ(S.sortOf(Def.findPort("q")), Sort::ToSync);
  EXPECT_EQ(S.subSortOf(Def.findPort("q")), SubSort::Indirect);
}

TEST(SortInferenceTest, ConstantOutputIsFromSyncDirect) {
  Builder B("const_out");
  B.output("y", B.lit(5, 8));
  Design D;
  ModuleId Id = D.addModule(B.finish());
  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(D, Out).hasError());
  const Module &Def = D.module(Id);
  EXPECT_EQ(Out.at(Id).sortOf(Def.findPort("y")), Sort::FromSync);
  EXPECT_EQ(Out.at(Id).subSortOf(Def.findPort("y")), SubSort::Direct);
}

TEST(SortInferenceTest, UnusedInputIsToSyncDirect) {
  Builder B("unused_in");
  B.input("a", 4);
  B.output("y", B.lit(0, 1));
  Design D;
  ModuleId Id = D.addModule(B.finish());
  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(D, Out).hasError());
  const Module &Def = D.module(Id);
  EXPECT_EQ(Out.at(Id).sortOf(Def.findPort("a")), Sort::ToSync);
  EXPECT_EQ(Out.at(Id).subSortOf(Def.findPort("a")), SubSort::Direct);
}

TEST(SortInferenceTest, AsyncMemoryIsACombinationalPath) {
  Builder B("async_path");
  V RAddr = B.input("raddr", 4);
  V WAddr = B.input("waddr", 4);
  V WData = B.input("wdata", 8);
  V Wen = B.input("wen", 1);
  B.output("rdata", B.memory("m", /*SyncRead=*/false, RAddr, WAddr, WData,
                             Wen));
  Design D;
  ModuleId Id = D.addModule(B.finish());
  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(D, Out).hasError());
  const Module &Def = D.module(Id);
  EXPECT_EQ(Out.at(Id).sortOf(Def.findPort("raddr")), Sort::ToPort);
  EXPECT_EQ(Out.at(Id).sortOf(Def.findPort("waddr")), Sort::ToSync);
  EXPECT_EQ(Out.at(Id).sortOf(Def.findPort("rdata")), Sort::FromPort);
}

TEST(SortInferenceTest, SyncMemoryBreaksThePath) {
  Builder B("sync_path");
  V RAddr = B.input("raddr", 4);
  V WAddr = B.input("waddr", 4);
  V WData = B.input("wdata", 8);
  V Wen = B.input("wen", 1);
  B.output("rdata", B.memory("m", /*SyncRead=*/true, RAddr, WAddr, WData,
                             Wen));
  Design D;
  ModuleId Id = D.addModule(B.finish());
  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(D, Out).hasError());
  const Module &Def = D.module(Id);
  EXPECT_EQ(Out.at(Id).sortOf(Def.findPort("raddr")), Sort::ToSync);
  EXPECT_EQ(Out.at(Id).sortOf(Def.findPort("rdata")), Sort::FromSync);
  // Read data straight out of the array: from-sync-direct.
  EXPECT_EQ(Out.at(Id).subSortOf(Def.findPort("rdata")), SubSort::Direct);
}

TEST(SortInferenceTest, HierarchicalSummaryUsesInstanceSummaries) {
  // Wrap the forwarding FIFO in a parent; the parent's ports inherit the
  // coupling through the instance summary without re-analyzing the
  // child's internals.
  Design D;
  ModuleId Fwd = D.addModule(gen::makeFifo({8, 2, /*Forwarding=*/true}));

  Builder B("wrapper");
  V DataIn = B.input("in_data", 8);
  V VIn = B.input("in_v", 1);
  V Yumi = B.input("in_yumi", 1);
  auto Outs = B.instantiate(D, Fwd, "q",
                            {{"data_i", DataIn},
                             {"v_i", VIn},
                             {"yumi_i", Yumi}});
  B.output("out_data", Outs.at("data_o"));
  B.output("out_v", Outs.at("v_o"));
  B.output("out_ready", Outs.at("ready_o"));
  ModuleId Wrap = D.addModule(B.finish());

  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(D, Out).hasError());
  const Module &Def = D.module(Wrap);
  const ModuleSummary &S = Out.at(Wrap);
  EXPECT_EQ(S.sortOf(Def.findPort("in_v")), Sort::ToPort);
  EXPECT_EQ(S.sortOf(Def.findPort("out_v")), Sort::FromPort);
  EXPECT_EQ(S.sortOf(Def.findPort("in_yumi")), Sort::ToSync);
  EXPECT_EQ(S.sortOf(Def.findPort("out_ready")), Sort::FromSync);
}

TEST(SortInferenceTest, InternalCombLoopReported) {
  // a = a & b is a one-net combinational loop.
  Module M("selfloop");
  WireId A = M.addWire("a", WireKind::Basic, 1);
  WireId B = M.addInput("b", 1);
  WireId Y = M.addOutput("y", 1);
  M.addNet(Op::And, {A, B}, A);
  M.addNet(Op::Buf, {A}, Y);
  Design D;
  D.addModule(std::move(M));
  std::map<ModuleId, ModuleSummary> Out;
  support::Status Loop = analyzeDesign(D, Out);
  ASSERT_TRUE(Loop.hasError());
  EXPECT_NE(Loop.describe().find("selfloop.a"), std::string::npos);
}

TEST(SortInferenceTest, CombGraphListsNetsThenReadsThenInstances) {
  // findCycle walks successors in row order, so that order is what the
  // WS101 witnesses are made of. Each row lists the wire's net edges in
  // net order, then its asynchronous reads, then its instance edges,
  // whatever the wire ids: here they run against it.
  Design D;
  Module Pass("pass");
  WireId PassIn = Pass.addInput("a", 1);
  Pass.addNet(Op::Buf, {PassIn}, Pass.addOutput("y", 1));
  const ModuleId PassId = D.addModule(std::move(Pass));

  Module M("top");
  WireId S = M.addInput("s", 1);
  WireId X = M.addInput("x", 1);
  WireId U = M.addWire("u", WireKind::Basic, 1);
  WireId R = M.addWire("r", WireKind::Basic, 1);
  WireId B = M.addWire("b", WireKind::Basic, 1);
  WireId A = M.addWire("a", WireKind::Basic, 1);
  M.addNet(Op::Not, {S}, A);
  M.addNet(Op::And, {X, S}, B);
  Memory Mem;
  Mem.Name = "mem";
  Mem.AddrWidth = 1;
  Mem.DataWidth = 1;
  Mem.RAddr = S;
  Mem.RData = R;
  Mem.WAddr = M.addInput("wa", 1);
  Mem.WData = M.addInput("wd", 1);
  Mem.WEnable = M.addInput("we", 1);
  M.addMemory(std::move(Mem));
  const Module &PassDef = D.module(PassId);
  M.addInstance(SubInstance{
      PassId, "p", {{PassDef.findPort("a"), S}, {PassDef.findPort("y"), U}}});
  M.addNet(Op::Or, {A, B, R, U}, M.addOutput("o", 1));
  const ModuleId Top = D.addModule(std::move(M));

  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(D, Out).hasError());
  CombGraph CG = CombGraph::build(D.module(Top), Out);
  const CsrGraph &G = CG.frozen();
  auto row = [&](WireId W) {
    std::span<const uint32_t> Succ = G.successors(W);
    return std::vector<uint32_t>(Succ.begin(), Succ.end());
  };
  EXPECT_EQ(row(S), (std::vector<uint32_t>{A, B, R, U}));
  EXPECT_EQ(row(X), (std::vector<uint32_t>{B}));
  const WireId O = D.module(Top).findPort("o");
  for (WireId W : {A, B, R, U})
    EXPECT_EQ(row(W), (std::vector<uint32_t>{O}));
  EXPECT_EQ(G.numEdges(), 9u);
}

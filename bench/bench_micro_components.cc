/**
 * @file
 * google-benchmark micro-benchmarks of the simulator substrate itself:
 * cache tag lookups, predictor updates, Table of Loads observations,
 * VRMT lookups, sparse-memory access and whole-core simulation speed.
 */

#include <array>

#include <benchmark/benchmark.h>

#include "arch/executor.hh"
#include "arch/memory.hh"
#include "branch/gshare.hh"
#include "mem/cache.hh"
#include "sim/simulator.hh"
#include "vector/elem_kernels.hh"
#include "vector/table_of_loads.hh"
#include "vector/vreg_file.hh"
#include "vector/vrmt.hh"
#include "workloads/workload.hh"

using namespace sdv;

namespace {

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache("bench", 64 * 1024, 2, 32);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(a, false).hit);
        a = (a + 4096 + 32) & 0xfffff;
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_GsharePredictUpdate(benchmark::State &state)
{
    Gshare g(64 * 1024, 16);
    Addr pc = 0x10000;
    bool taken = false;
    for (auto _ : state) {
        benchmark::DoNotOptimize(g.predict(pc));
        g.update(pc, taken);
        taken = !taken;
        pc += 8;
    }
}
BENCHMARK(BM_GsharePredictUpdate);

void
BM_TableOfLoadsObserve(benchmark::State &state)
{
    TableOfLoads tl;
    Addr pc = 0x10000, addr = 0x100000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tl.observe(pc, addr));
        addr += 8;
        pc = 0x10000 + (addr & 0x3f8);
    }
}
BENCHMARK(BM_TableOfLoadsObserve);

void
BM_VrmtLookup(benchmark::State &state)
{
    Vrmt vrmt;
    VrmtEntry e;
    e.valid = true;
    for (Addr pc = 0x10000; pc < 0x10000 + 128 * 8; pc += 8) {
        e.pc = pc;
        vrmt.install(e);
    }
    Addr pc = 0x10000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(vrmt.lookup(pc));
        pc = 0x10000 + ((pc + 8) & 0x3f8);
    }
}
BENCHMARK(BM_VrmtLookup);

void
BM_VecRegFileChurn(benchmark::State &state)
{
    // The steady-state register lifecycle: allocate, compute and
    // validate every element, supersede, and let the incremental
    // release sweep reclaim — the sweepPending/sweepReleases hot path.
    VecRegFile vrf(128, 4);
    std::uint64_t released = 0;
    for (auto _ : state) {
        const VecRegRef r = vrf.allocate(0x1000);
        for (unsigned e = 0; e < 4; ++e) {
            vrf.setData(r, e, e);
            vrf.setUsed(r, e, true);
            vrf.setValid(r, e);
            vrf.setFree(r, e);
        }
        released += vrf.sweepReleases(0x1000);
    }
    benchmark::DoNotOptimize(released);
    state.counters["released/s"] = benchmark::Counter(
        double(released), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VecRegFileChurn);

void
BM_ValidationWakeup(benchmark::State &state)
{
    // The core's validation poll: each completion stage asks the
    // register file about every parked validation's target element
    // (live, computed, killed: SdvEngine::validationStatus). Here each
    // element is polled once while it waits and once after it lands.
    VecRegFile vrf(128, 4);
    const auto resolved = [&vrf](VecRegRef r, unsigned e) {
        return !vrf.isLive(r) || vrf.isReady(r, e) || vrf.isKilled(r);
    };
    std::uint64_t polls = 0;
    std::uint64_t ready = 0;
    for (auto _ : state) {
        const VecRegRef r = vrf.allocate(0);
        for (unsigned e = 0; e < 4; ++e) {
            ready += resolved(r, e);
            vrf.setData(r, e, e);
            ready += resolved(r, e);
            vrf.setFree(r, e);
            polls += 2;
        }
        vrf.sweepReleases(0);
    }
    benchmark::DoNotOptimize(ready);
    state.counters["polls/s"] = benchmark::Counter(
        double(polls), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ValidationWakeup);

void
BM_SparseMemoryRead64(benchmark::State &state)
{
    SparseMemory mem;
    for (Addr a = 0; a < 1 << 20; a += 4096)
        mem.write64(a, a);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.read64(a));
        a = (a + 264) & 0xfffff;
    }
}
BENCHMARK(BM_SparseMemoryRead64);

void
BM_TraceDispatch(benchmark::State &state)
{
    // Pure functional execution rate through the compiled trace
    // (arg 1) against the decode-and-switch interpreter (arg 0) — the
    // dispatch overhead the timing core's oracle pays per fetch.
    static const Program prog = [] {
        Program p = buildWorkload("compress");
        p.predecodeAll();
        return p;
    }();
    const bool use_trace = state.range(0) != 0;
    std::uint64_t insts = 0;
    for (auto _ : state) {
        FunctionalCore fc(prog, use_trace);
        insts += fc.runToHalt(nullptr);
    }
    state.counters["insts/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceDispatch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void
BM_SimdElementBatch(benchmark::State &state)
{
    // Batched element semantics: one resolved kernel pointer applied
    // to a whole vector register's worth of lanes (the loop the host
    // compiler auto-vectorizes), swept over the figVL axis.
    const unsigned vl = unsigned(state.range(0));
    const ElemKernelFn kern = elemKernel(Opcode::ADD);
    std::array<std::uint64_t, 64> a{}, b{}, dst{};
    for (unsigned i = 0; i < 64; ++i) {
        a[i] = i * 3;
        b[i] = i * 7 + 1;
    }
    std::uint64_t elems = 0;
    for (auto _ : state) {
        kern(dst.data(), a.data(), b.data(), 0, vl);
        benchmark::DoNotOptimize(dst[vl - 1]);
        elems += vl;
    }
    state.counters["elems/s"] = benchmark::Counter(
        double(elems), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimdElementBatch)->Arg(4)->Arg(16)->Arg(64);

void
BM_CoreSimulation(benchmark::State &state)
{
    // Whole-machine simulation rate (cycles/second) on a small kernel.
    const Program prog = buildWorkload("compress");
    std::uint64_t cycles = 0, insts = 0;
    for (auto _ : state) {
        const SimResult r =
            simulate(makeConfig(4, 1, BusMode::WideBusSdv), prog,
                     10'000'000, /*verify=*/false);
        cycles += r.core.cycles;
        insts += r.core.committedInsts;
        benchmark::DoNotOptimize(r.core.ipc());
    }
    state.counters["cycles/s"] = benchmark::Counter(
        double(cycles), benchmark::Counter::kIsRate);
    state.counters["sim_insts/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreSimulation)->Unit(benchmark::kMillisecond);

} // namespace

// google-benchmark's own flags: a CI smoke run is
//   --benchmark_min_time=0.05 --benchmark_out=m.json
//   --benchmark_out_format=json
BENCHMARK_MAIN();

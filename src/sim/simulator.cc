#include "sim/simulator.hh"

#include "common/log.hh"
#include "obs/telemetry.hh"

namespace sdv {

Simulator::Simulator(const CoreConfig &cfg, const Program &prog)
    : prog_(prog), core_(cfg, prog)
{
}

bool
Simulator::tickUntil(std::uint64_t fetch_limit, bool stop_at_halt,
                     std::uint64_t max_cycles,
                     obs::IntervalTelemetry *telemetry)
{
    core_.setFetchLimit(fetch_limit);
    // Without a cap the stream drains only after HALT commits. The
    // quiescence check runs only once fetch is exhausted, so the
    // steady-state loop stays as cheap as ticking alone.
    const auto stopped = [&] {
        return (stop_at_halt && core_.done()) ||
               (core_.fetchExhausted() && core_.quiescent());
    };
    while (core_.cycle() < max_cycles && !stopped()) {
        core_.tick();
        if (telemetry && telemetry->due(core_.cycle()))
            telemetry->sample(core_);
    }
    const bool stopped_by_rule = stopped();
    core_.setFetchLimit(0);
    return stopped_by_rule;
}

bool
Simulator::advanceTo(std::uint64_t target_insts,
                     std::uint64_t max_cycles)
{
    sdv_assert(target_insts > core_.oracle().instCount(),
               "advanceTo target is behind the current position");
    const ScopedLogContext log_ctx("sim", core_.cyclePtr());
    // Drain past HALT: even when HALT committed inside the warm-up,
    // in-flight vector elements must land before the boundary.
    if (!tickUntil(target_insts, /*stop_at_halt=*/false, max_cycles,
                   nullptr) ||
        core_.done()) {
        // Program over, or the budget elapsed before the pipeline
        // quiesced: no measurement boundary exists. The simulator is
        // left as-is (not rebased) and the caller must discard it.
        warn("warm-up did not reach a measurement boundary");
        return false;
    }
    core_.beginMeasurement();
    return true;
}

void
Simulator::collect(SimResult &res)
{
    res.core = core_.stats();
    res.engine = core_.engine().stats();
    res.datapath = core_.engine().datapath().stats();
    res.ports = core_.ports().stats();
    res.wideBus = core_.ports().wideBusBreakdown();
    res.fates = core_.engine().vrf().fateStats();
    res.l1d = core_.memHierarchy().l1d().stats();
    res.l1i = core_.memHierarchy().l1i().stats();
    res.l2 = core_.memHierarchy().l2().stats();
}

SimResult
Simulator::runInsts(std::uint64_t insts, std::uint64_t max_cycles)
{
    sdv_assert(insts > 0, "runInsts needs at least one instruction");
    const ScopedLogContext log_ctx("sim", core_.cyclePtr());
    // A sample is complete when its region drained or the program ran
    // to HALT inside it; only a blown cycle budget leaves it unusable.
    SimResult res;
    res.finished = tickUntil(core_.oracle().instCount() + insts,
                             /*stop_at_halt=*/true, max_cycles, nullptr);
    core_.finalize();
    if (!res.finished)
        warn("sample measurement hit the cycle budget");
    collect(res);
    return res;
}

SimResult
Simulator::run(std::uint64_t max_cycles, bool verify,
               std::uint64_t quiesce_interval)
{
    SimResult res;
    const ScopedLogContext log_ctx("sim", core_.cyclePtr());
    if (telemetry_)
        telemetry_->begin(core_);
    if (quiesce_interval == 0) {
        tickUntil(0, /*stop_at_halt=*/true, max_cycles, telemetry_);
    } else {
        // Periodic context switch: drain at each boundary (past HALT,
        // like advanceTo(), but without rebasing the clock and
        // statistics) and drop the transient vector state.
        std::uint64_t boundary = core_.oracle().instCount();
        while (!core_.done() && core_.cycle() < max_cycles) {
            boundary += quiesce_interval;
            tickUntil(boundary, /*stop_at_halt=*/false, max_cycles,
                      telemetry_);
            if (!core_.done() && core_.cycle() < max_cycles)
                core_.quiesceVectorState();
        }
    }

    // Flush the final partial interval while the vector state is still
    // live (finalize() releases it, which would skew the last sample's
    // live-vreg occupancy).
    if (telemetry_)
        telemetry_->finish(core_);

    core_.finalize();

    res.finished = core_.done();
    if (!res.finished)
        warn("simulation hit the cycle budget before HALT");

    collect(res);

    if (verify && res.finished) {
        // Independent functional execution: the committed stream (PC
        // sequence and count) and the final architectural state must
        // match exactly — speculation must never leak into state. The
        // reference runs the same dispatch path as the timing core's
        // oracle (trace or interpreter) through the fast handlers.
        FunctionalCore ref(prog_, core_.config().traceExec);
        std::uint64_t hash = 0;
        ref.runToHalt(&hash);
        // committedTotal() spans any warm-up region too: the hash and
        // count cover the whole committed stream, not just the
        // measured statistics window.
        const bool stream_ok = hash == core_.commitPcHash() &&
                               ref.instCount() == core_.committedTotal();
        const bool state_ok =
            ref.state() == core_.oracle().state() &&
            ref.memory().equals(core_.oracle().memory());
        res.verified = stream_ok && state_ok;
        if (!res.verified)
            warn("timing simulation diverged from functional reference");
    }
    return res;
}

SimResult
simulate(const CoreConfig &cfg, const Program &prog,
         std::uint64_t max_cycles, bool verify)
{
    Simulator sim(cfg, prog);
    return sim.run(max_cycles, verify);
}

} // namespace sdv

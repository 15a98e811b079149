#include "sim/simulator.hh"

#include "common/log.hh"
#include "obs/telemetry.hh"

namespace sdv {

Simulator::Simulator(const CoreConfig &cfg, const Program &prog)
    : prog_(prog), core_(cfg, prog)
{
}

bool
Simulator::warmup(std::uint64_t insts, std::uint64_t max_cycles)
{
    sdv_assert(insts > 0, "warmup needs at least one instruction");
    return advanceTo(insts, max_cycles);
}

bool
Simulator::advanceTo(std::uint64_t target_insts,
                     std::uint64_t max_cycles)
{
    sdv_assert(target_insts > core_.oracle().instCount(),
               "advanceTo target is behind the current position");
    const ScopedLogContext log_ctx("sim", core_.cyclePtr());
    core_.setFetchLimit(target_insts);
    core_.setCycleLimit(max_cycles);
    // Run until the capped fetch stream has fully drained through the
    // pipeline *and* the vector engine (even when HALT committed
    // inside the warm-up, in-flight vector elements must land before
    // the boundary). The quiescence check runs only once fetch is
    // exhausted, so the steady-state warm-up loop stays as cheap as a
    // normal run.
    while (core_.cycle() < max_cycles &&
           !(core_.fetchExhausted() && core_.quiescent()))
        core_.tick();
    core_.setFetchLimit(0);
    core_.setCycleLimit(neverCycle);
    if (core_.done() || !core_.quiescent()) {
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
    res.cycles = core_.cycle();
    res.core = core_.stats();
    res.insts = res.core.committedInsts;
    res.ipc = res.core.ipc();
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
    core_.setFetchLimit(core_.oracle().instCount() + insts);
    core_.setCycleLimit(max_cycles);
    // As in advanceTo(): run until the capped fetch stream has fully
    // drained, so the measured region's statistics are complete.
    while (core_.cycle() < max_cycles && !core_.done() &&
           !(core_.fetchExhausted() && core_.quiescent()))
        core_.tick();
    // A sample is complete when its region drained or the program ran
    // to HALT inside it; only a blown cycle budget leaves it unusable.
    const bool drained =
        core_.done() || (core_.fetchExhausted() && core_.quiescent());
    core_.setFetchLimit(0);
    core_.setCycleLimit(neverCycle);
    core_.finalize();

    SimResult res;
    res.finished = drained;
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
    core_.setCycleLimit(max_cycles);
    if (telemetry_)
        telemetry_->begin(core_);
    if (quiesce_interval == 0) {
        while (!core_.done() && core_.cycle() < max_cycles) {
            core_.tick();
            if (telemetry_ && telemetry_->due(core_.cycle()))
                telemetry_->sample(core_);
        }
    } else {
        // Periodic context-switch semantics: cap fetch at the next
        // boundary, drain until quiescent, drop the transient vector
        // state, continue. The clock and statistics keep accumulating
        // (unlike warmup()/advanceTo(), which rebase them).
        std::uint64_t boundary =
            core_.oracle().instCount() + quiesce_interval;
        while (!core_.done() && core_.cycle() < max_cycles) {
            core_.setFetchLimit(boundary);
            while (core_.cycle() < max_cycles &&
                   !(core_.fetchExhausted() && core_.quiescent())) {
                core_.tick();
                if (telemetry_ && telemetry_->due(core_.cycle()))
                    telemetry_->sample(core_);
            }
            core_.setFetchLimit(0);
            if (core_.done() || core_.cycle() >= max_cycles)
                break;
            core_.quiesceVectorState();
            boundary += quiesce_interval;
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

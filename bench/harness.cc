#include "harness.hh"

#include "common/log.hh"

namespace sdv {
namespace bench {

sweep::RunOptions
parseArgs(int argc, char **argv)
{
    sweep::RunOptions opt;
    const std::vector<sweep::Flag> flags = sweep::onlyFlags(
        sweep::runFlags(opt), {"--scale", "--footprint", "--quick"});
    const std::string err = sweep::parseFlags(argc, argv, flags);
    if (!err.empty())
        sweep::usageExit(std::string("usage: ") + argv[0] + " [options]",
                         flags, err);
    detail::setQuiet(true);
    return opt;
}

void
forEachWorkload(
    const sweep::PlanOptions &opt,
    const std::function<void(const Workload &, const Program &)> &fn)
{
    for (const Workload *w : selectWorkloads(allWorkloads(), opt.quick))
        fn(*w, w->instantiate(opt.scale, opt.footprint));
}

} // namespace bench
} // namespace sdv

/**
 * @file
 * Workload factory.
 */

#include "workloads/workload.hh"

#include "workloads/hotspot.hh"
#include "workloads/lavamd.hh"
#include "workloads/lud.hh"
#include "workloads/micro.hh"
#include "workloads/mxm.hh"
#include "workloads/mxm_mixed.hh"

namespace mparch::workloads {

const char *
sdcSeverityName(SdcSeverity severity)
{
    switch (severity) {
      case SdcSeverity::Tolerable:       return "tolerable";
      case SdcSeverity::DetectionChange: return "detection-change";
      case SdcSeverity::CriticalChange:  return "critical-change";
    }
    return "?";
}

namespace {

/** Instantiate one benchmark template at a runtime precision; @p
 *  Args lead the constructor arguments, before the scale. */
template <template <fp::Precision> class W, auto... Args>
WorkloadPtr
dispatch(fp::Precision p, double scale)
{
    switch (p) {
      case fp::Precision::Half:
        return std::make_unique<W<fp::Precision::Half>>(Args..., scale);
      case fp::Precision::Single:
        return std::make_unique<W<fp::Precision::Single>>(Args..., scale);
      case fp::Precision::Double:
        return std::make_unique<W<fp::Precision::Double>>(Args..., scale);
      case fp::Precision::Bfloat16:
        return std::make_unique<W<fp::Precision::Bfloat16>>(Args...,
                                                             scale);
    }
    panic("unknown precision");
}

WorkloadPtr
makeMixed(fp::Precision, double scale)
{
    return std::make_unique<MxMMixedWorkload>(scale);
}

/** Every numeric benchmark by name, the one list of them. */
const std::pair<std::string_view, WorkloadMaker> kWorkloads[] = {
    {"mxm", dispatch<MxMWorkload>},
    {"mxm-mixed", makeMixed},
    {"lavamd", dispatch<LavaMDWorkload>},
    {"hotspot", dispatch<HotspotWorkload>},
    {"lud", dispatch<LudWorkload>},
    {"micro-add", dispatch<MicroWorkload, MicroOp::Add>},
    {"micro-mul", dispatch<MicroWorkload, MicroOp::Mul>},
    {"micro-fma", dispatch<MicroWorkload, MicroOp::Fma>},
};

} // namespace

WorkloadMaker
findWorkload(std::string_view name)
{
    for (const auto &[known, make] : kWorkloads)
        if (known == name)
            return make;
    return nullptr;
}

WorkloadPtr
makeWorkload(const std::string &name, fp::Precision p, double scale)
{
    if (const WorkloadMaker make = findWorkload(name))
        return make(p, scale);
    fatal("unknown workload '", name, "'");
}

} // namespace mparch::workloads

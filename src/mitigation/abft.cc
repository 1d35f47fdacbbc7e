#include "mitigation/abft.hh"

namespace mparch::mitigation {

namespace {

workloads::WorkloadPtr
build(fp::Precision p, double scale)
{
    switch (p) {
      case fp::Precision::Half:
        return std::make_unique<
            AbftMxMWorkload<fp::Precision::Half>>(scale);
      case fp::Precision::Single:
        return std::make_unique<
            AbftMxMWorkload<fp::Precision::Single>>(scale);
      case fp::Precision::Double:
        return std::make_unique<
            AbftMxMWorkload<fp::Precision::Double>>(scale);
      case fp::Precision::Bfloat16:
        return std::make_unique<
            AbftMxMWorkload<fp::Precision::Bfloat16>>(scale);
    }
    panic("unknown precision");
}

} // namespace

workloads::WorkloadPtr
makeAbftMxM(fp::Precision p, double scale)
{
    return workloads::stamped(build(p, scale), scale);
}

} // namespace mparch::mitigation

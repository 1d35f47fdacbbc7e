// Fixture: native floating-point math in softfloat code outside the
// host-FPU gate. Lives under a fake src/fp/ path so the tree-scoped
// check applies.

#pragma STDC FP_CONTRACT ON

#include <cmath>

namespace mparch::fp {

double
nativeFma(double a, double b, double c)
{
    // A second, unverified implementation next to the softfloat one.
    return std::fma(a, b, c);
}

float
nativeSqrt(float a)
{
    return __builtin_sqrtf(a);
}

} // namespace mparch::fp

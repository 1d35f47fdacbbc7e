// Fixture: a free function a src/ header declares and nothing calls.
// `unreferenced` flags orphanHelper.

#ifndef MPARCH_FIXTURE_UNUSED_FUNCTION_HH
#define MPARCH_FIXTURE_UNUSED_FUNCTION_HH

namespace fixture {

int orphanHelper(int x);

} // namespace fixture

#endif // MPARCH_FIXTURE_UNUSED_FUNCTION_HH

// Fixture: a function whose only caller is a test
// (tests/test_only_user.cc). A test keeps nothing alive, so
// `unreferenced` flags debugDump.

#ifndef MPARCH_FIXTURE_TEST_ONLY_HH
#define MPARCH_FIXTURE_TEST_ONLY_HH

namespace fixture {

int debugDump();

} // namespace fixture

#endif // MPARCH_FIXTURE_TEST_ONLY_HH

// Fixture: a test, the only caller of debugDump
// (src/unreferenced/test_only.hh).

#include "src/unreferenced/test_only.hh"

namespace fixture {

int
dumpsSomething()
{
    return debugDump();
}

} // namespace fixture

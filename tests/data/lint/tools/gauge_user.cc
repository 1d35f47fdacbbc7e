// Fixture: a tool that uses the unreferenced corpus — a Gauge
// reading.

#include "src/unreferenced/unused_member.hh"

namespace fixture {

double
reading()
{
    return Gauge().read();
}

} // namespace fixture

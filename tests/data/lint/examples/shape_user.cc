// Fixture: an example that uses the unreferenced corpus — a
// Square's area through the base class.

#include "src/unreferenced/used_override.hh"

namespace fixture {

double
area(const Shape &shape)
{
    return shape.area();
}

double
unitSquare()
{
    return area(Square(1.0));
}

} // namespace fixture

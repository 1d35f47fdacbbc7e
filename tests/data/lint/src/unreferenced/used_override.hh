// Fixture: an override of a virtual that examples/shape_user.cc calls
// through the base class. Matching goes by name, so Square::area is
// used too and `unreferenced` flags nothing here.

#ifndef MPARCH_FIXTURE_USED_OVERRIDE_HH
#define MPARCH_FIXTURE_USED_OVERRIDE_HH

namespace fixture {

class Shape
{
  public:
    virtual ~Shape() = default;
    virtual double area() const = 0;
};

class Square final : public Shape
{
  public:
    explicit Square(double side) : side_(side) {}
    double area() const override { return side_ * side_; }

  private:
    double side_;
};

} // namespace fixture

#endif // MPARCH_FIXTURE_USED_OVERRIDE_HH

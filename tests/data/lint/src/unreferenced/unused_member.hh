// Fixture: a used class with one member function nothing calls.
// tools/gauge_user.cc reads a Gauge; `unreferenced` flags reset.

#ifndef MPARCH_FIXTURE_UNUSED_MEMBER_HH
#define MPARCH_FIXTURE_UNUSED_MEMBER_HH

namespace fixture {

class Gauge
{
  public:
    double read() const { return value_; }

    void reset() { value_ = 0.0; }

  private:
    double value_ = 1.0;
};

} // namespace fixture

#endif // MPARCH_FIXTURE_UNUSED_MEMBER_HH

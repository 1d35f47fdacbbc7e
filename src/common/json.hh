/**
 * @file
 * Minimal JSON emission.
 *
 * The writer is a streaming emitter with correct string escaping and
 * an explicit non-finite policy (JSON has no NaN/Inf, so they are
 * emitted as null); every structured artefact the tooling writes —
 * experiment result documents, study dumps, lint reports — goes
 * through it instead of hand-rolled `os << "{\"x\": ..."` fragments.
 * Nothing in the project reads JSON back.
 */

#ifndef MPARCH_COMMON_JSON_HH
#define MPARCH_COMMON_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace mparch::json {

/** Escape @p text for inclusion inside a JSON string literal
 *  (quotes, backslashes, control characters). */
std::string escape(const std::string &text);

/**
 * Streaming JSON writer.
 *
 * Call sequence mirrors the document structure: beginObject()/key()/
 * value()/endObject(), beginArray()/value()/endArray(). Commas and
 * two-space indentation are managed automatically. Misuse (a value
 * in an object without a preceding key) trips an assertion.
 */
class Writer
{
  public:
    explicit Writer(std::ostream &os) : os_(os) {}

    Writer &beginObject();
    Writer &endObject();
    Writer &beginArray();
    Writer &endArray();

    /** Name the next member of the enclosing object. */
    Writer &key(const std::string &name);

    Writer &value(const std::string &text);
    Writer &value(const char *text);
    Writer &value(double number);  ///< NaN/Inf emitted as null
    Writer &value(std::int64_t number);
    Writer &value(std::uint64_t number);
    Writer &value(unsigned number);
    Writer &value(int number);
    Writer &value(bool flag);
    Writer &null();

    /** key() + value() in one call. */
    template <typename T>
    Writer &
    member(const std::string &name, const T &v)
    {
        key(name);
        return value(v);
    }

  private:
    void beforeValue();
    void newline();

    struct Level
    {
        bool isObject = false;
        bool first = true;
    };

    std::ostream &os_;
    std::vector<Level> stack_;
    bool keyPending_ = false;
};

} // namespace mparch::json

#endif // MPARCH_COMMON_JSON_HH

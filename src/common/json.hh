/**
 * @file
 * Minimal JSON emission and parsing.
 *
 * The writer is a streaming emitter with correct string escaping and
 * an explicit non-finite policy (JSON has no NaN/Inf, so they are
 * emitted as null); every structured artefact the tooling writes —
 * experiment result documents, study dumps — goes through it instead
 * of hand-rolled `os << "{\"x\": ..."` fragments. The parser is the
 * writer's round-trip counterpart: a small recursive-descent reader
 * used by tests and by tooling that re-ingests result documents.
 */

#ifndef MPARCH_COMMON_JSON_HH
#define MPARCH_COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
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

/** A parsed JSON value (test/tooling-grade document tree). */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::map<std::string, Value> object;

    /** Object member, or null if absent / not an object. */
    const Value *find(const std::string &name) const;
};

/**
 * Parse a complete JSON document.
 *
 * @param text  The document.
 * @param error Filled with a position-annotated message on failure.
 * @return Parsed tree, or std::nullopt-like failure signalled by a
 *         non-empty @p error (the returned value is Null then).
 */
bool parse(const std::string &text, Value &out, std::string *error);

} // namespace mparch::json

#endif // MPARCH_COMMON_JSON_HH

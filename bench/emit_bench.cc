#include "emit_bench.hh"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "harness/sink.hh"

namespace rio::benchio
{

JsonObject &
JsonObject::putRaw(const std::string &key, std::string rendered)
{
    fields_.emplace_back(key, std::move(rendered));
    return *this;
}

JsonObject &
JsonObject::put(const std::string &key, u64 value)
{
    return putRaw(key, std::to_string(value));
}

JsonObject &
JsonObject::put(const std::string &key, int value)
{
    return putRaw(key, std::to_string(value));
}

JsonObject &
JsonObject::put(const std::string &key, double value)
{
    if (!std::isfinite(value))
        return putRaw(key, "null");
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    // %g may emit a bare integer; that is still valid JSON.
    return putRaw(key, buf);
}

JsonObject &
JsonObject::put(const std::string &key, bool value)
{
    return putRaw(key, value ? "true" : "false");
}

JsonObject &
JsonObject::put(const std::string &key, const char *value)
{
    return put(key, std::string(value));
}

JsonObject &
JsonObject::put(const std::string &key, const std::string &value)
{
    std::string quoted = "\"";
    quoted += harness::jsonEscape(value);
    quoted += '"';
    return putRaw(key, quoted);
}

JsonObject &
JsonObject::put(const std::string &key, const JsonObject &value)
{
    return putRaw(key, value.str(-1));
}

JsonObject &
JsonObject::extend(const JsonObject &other)
{
    for (const auto &field : other.fields_)
        fields_.push_back(field);
    return *this;
}

std::string
JsonObject::str(int depth) const
{
    // depth < 0 marks a nested object rendered by put(): it is
    // re-indented by the parent, so render relative to depth 0 and
    // let the parent prefix each line.
    const int base = depth < 0 ? 0 : depth;
    const std::string pad(static_cast<std::size_t>(base + 1) * 2,
                          ' ');
    const std::string close(static_cast<std::size_t>(base) * 2, ' ');
    std::string out = "{";
    bool first = true;
    for (const auto &[key, rendered] : fields_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += pad + "\"" + harness::jsonEscape(key) + "\": ";
        // Re-indent nested objects line by line.
        for (char c : rendered) {
            out += c;
            if (c == '\n')
                out += pad;
        }
    }
    out += first ? "}" : "\n" + close + "}";
    return out;
}

bool
writeBenchFile(const std::string &path, const std::string &name,
               int schema, const JsonObject &body)
{
    JsonObject envelope;
    envelope.put("bench", name);
    envelope.put("schema", schema);
    envelope.extend(body);
    std::ofstream out(path);
    out << envelope.str(0) << "\n";
    out.close();
    if (out.fail()) {
        std::fprintf(stderr, "emit_bench: failed writing %s\n",
                     path.c_str());
        return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
}

} // namespace rio::benchio

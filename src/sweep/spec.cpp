#include "sweep/spec.hpp"

#include <algorithm>
#include <unordered_set>

#include "sim/json.hpp"

namespace cni::sweep
{

namespace
{

/** Hard caps on spec shape, so a hostile POST cannot OOM the daemon. */
constexpr std::size_t kMaxAxes = 16;
constexpr std::size_t kMaxAxisValues = 4096;
constexpr std::size_t kMaxSeeds = 4096;
constexpr std::size_t kMaxPoints = 65536;

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex16(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[i] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

bool
validParamName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_';
        if (!ok)
            return false;
    }
    return true;
}

} // namespace

void
bindParam(ParamList *params, const std::string &name,
          const std::string &value)
{
    for (auto &[k, v] : *params) {
        if (k == name) {
            v = value;
            return;
        }
    }
    params->emplace_back(name, value);
}

std::string
pointKey(const std::string &workload, ParamList params, std::uint64_t seed,
         Tick timeoutTicks)
{
    std::sort(params.begin(), params.end());
    std::string canon = "workload=" + workload;
    for (const auto &[k, v] : params)
        canon += ";" + k + "=" + v;
    canon += ";seed=" + std::to_string(seed);
    canon += ";timeout=" + std::to_string(timeoutTicks);
    return hex16(fnv1a(canon));
}

std::vector<SweepPoint>
SweepSpec::expand() const
{
    std::vector<SweepPoint> points;
    std::unordered_set<std::string> seen;

    // Odometer over the axes, first axis slowest — the iteration order
    // of the equivalent nested for-loops.
    std::vector<std::size_t> idx(axes.size(), 0);
    for (;;) {
        ParamList merged = base;
        for (std::size_t a = 0; a < axes.size(); ++a)
            bindParam(&merged, axes[a].name, axes[a].values[idx[a]]);
        std::sort(merged.begin(), merged.end());

        for (const std::uint64_t seed : seeds) {
            SweepPoint p;
            p.workload = workload;
            p.seed = seed;
            p.params = merged;
            p.key = pointKey(workload, merged, seed, timeoutTicks);
            if (seen.insert(p.key).second)
                points.push_back(std::move(p));
        }

        // Tick the odometer: last axis is the fastest digit.
        std::size_t a = axes.size();
        while (a > 0) {
            --a;
            if (++idx[a] < axes[a].values.size())
                break;
            idx[a] = 0;
            if (a == 0)
                return points;
        }
        if (axes.empty())
            return points;
    }
}

std::string
SweepSpec::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("workload").value(workload);
    w.key("base").beginObject();
    for (const auto &[k, v] : base)
        w.key(k).value(v);
    w.endObject();
    w.key("axes").beginArray();
    for (const SweepAxis &a : axes) {
        w.beginObject();
        w.key("name").value(a.name);
        w.key("values").beginArray();
        for (const std::string &v : a.values)
            w.value(v);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("seeds").beginArray();
    for (const std::uint64_t s : seeds)
        w.value(static_cast<unsigned long long>(s));
    w.endArray();
    w.key("timeout_ticks")
        .value(static_cast<unsigned long long>(timeoutTicks));
    w.key("allow_invalid").value(allowInvalid);
    w.endObject();
    return w.str();
}

bool
SweepSpec::fromJson(const JsonValue &doc, SweepSpec *out, std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    if (!doc.isObject())
        return fail("sweep spec must be a JSON object");

    *out = SweepSpec{};

    const JsonValue *w = doc.get("workload");
    if (!w || !w->isString() || w->text.empty())
        return fail("'workload' must be a non-empty string");
    out->workload = w->text;

    if (const JsonValue *base = doc.get("base")) {
        if (!base->isObject())
            return fail("'base' must be an object");
        for (const auto &[name, value] : base->members) {
            if (!validParamName(name))
                return fail("bad parameter name '" + name + "'");
            std::string text;
            if (!value.scalarText(&text))
                return fail("base parameter '" + name +
                            "' must be a string, number, or boolean");
            bindParam(&out->base, name, text);
        }
    }

    if (const JsonValue *axes = doc.get("axes")) {
        if (!axes->isArray())
            return fail("'axes' must be an array");
        if (axes->items.size() > kMaxAxes)
            return fail("more than " + std::to_string(kMaxAxes) +
                        " axes");
        for (const JsonValue &axis : axes->items) {
            if (!axis.isObject())
                return fail("each axis must be an object");
            const JsonValue *name = axis.get("name");
            const JsonValue *values = axis.get("values");
            if (!name || !name->isString() ||
                !validParamName(name->text))
                return fail("axis needs a valid 'name' string");
            if (!values || !values->isArray() || values->items.empty())
                return fail("axis '" + name->text +
                            "' needs a non-empty 'values' array");
            if (values->items.size() > kMaxAxisValues)
                return fail("axis '" + name->text + "' has more than " +
                            std::to_string(kMaxAxisValues) + " values");
            SweepAxis a;
            a.name = name->text;
            for (const JsonValue &v : values->items) {
                std::string text;
                if (!v.scalarText(&text))
                    return fail("axis '" + name->text +
                                "' values must be strings, numbers, or "
                                "booleans");
                a.values.push_back(std::move(text));
            }
            out->axes.push_back(std::move(a));
        }
    }

    if (const JsonValue *seeds = doc.get("seeds")) {
        if (!seeds->isArray() || seeds->items.empty())
            return fail("'seeds' must be a non-empty array of integers");
        if (seeds->items.size() > kMaxSeeds)
            return fail("more than " + std::to_string(kMaxSeeds) +
                        " seeds");
        out->seeds.clear();
        for (const JsonValue &s : seeds->items) {
            std::uint64_t v = 0;
            if (!s.toU64(&v))
                return fail("'seeds' entries must be non-negative "
                            "integers");
            out->seeds.push_back(v);
        }
    }

    if (const JsonValue *t = doc.get("timeout_ticks")) {
        std::uint64_t v = 0;
        if (!t->toU64(&v) || v < 1)
            return fail("'timeout_ticks' must be a positive integer");
        out->timeoutTicks = v;
    }

    if (const JsonValue *ai = doc.get("allow_invalid")) {
        if (!ai->isBool())
            return fail("'allow_invalid' must be a boolean");
        out->allowInvalid = ai->boolean;
    }

    for (const auto &[name, value] : doc.members) {
        if (name != "workload" && name != "base" && name != "axes" &&
            name != "seeds" && name != "timeout_ticks" &&
            name != "allow_invalid")
            return fail("unknown spec field '" + name + "'");
    }

    // The grid size is known before expansion; refuse absurd jobs here
    // so expand() cannot be used to allocate gigabytes.
    std::size_t cells = 1;
    for (const SweepAxis &a : out->axes) {
        if (a.values.size() != 0 && cells > kMaxPoints / a.values.size())
            return fail("sweep grid larger than " +
                        std::to_string(kMaxPoints) + " points");
        cells *= a.values.size();
    }
    if (cells * out->seeds.size() > kMaxPoints)
        return fail("sweep grid larger than " +
                    std::to_string(kMaxPoints) + " points");

    return true;
}

} // namespace cni::sweep

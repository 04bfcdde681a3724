/**
 * @file
 * In-process half of the repository benchmark (see README.md here).
 *
 * The driver calls only the public API of the ifprob library and times
 * each call from the outside: it adds no instrumentation to src/. The
 * matrix and mirror commands print one JSON object on their last stdout
 * line; perfbench/run.py turns that into the benchmark's metrics.
 *
 *   perfbench_driver setup
 *   perfbench_driver matrix --seed N --seconds S --trace 0|1
 *                           --golden FILE --jobs J [--spans FILE]
 *   perfbench_driver mirror --mode cold|warm --cache DIR --seed N --jobs J
 *                           [--spans FILE]
 *   perfbench_driver golden-matrix > golden/vm_matrix.txt
 *
 * golden-matrix records the reference file once; no timed path runs it,
 * and it is the only place the switch engine is used.
 */
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "compiler/inline.h"
#include "compiler/layout.h"
#include "exec/pool.h"
#include "harness/experiments.h"
#include "harness/runner.h"
#include "ilp/runlength.h"
#include "ilp/trace.h"
#include "metrics/breaks.h"
#include "metrics/report.h"
#include "obs/metrics.h"
#include "predict/dynamic_predictor.h"
#include "predict/evaluate.h"
#include "predict/heuristic_predictor.h"
#include "predict/profile_predictor.h"
#include "predict/zoo/scheduler.h"
#include "profile/profile_db.h"
#include "support/error.h"
#include "support/str.h"
#include "trace/trace.h"
#include "vm/jit/trace_unit.h"
#include "vm/machine.h"
#include "workloads/workload.h"

using namespace ifprob;

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
seconds(int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

/** The envelope every bench binary runs under (bench::defaultLimits). */
vm::RunLimits
benchLimits()
{
    vm::RunLimits limits;
    limits.max_instructions = 4'000'000'000ll;
    return limits;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, attributed after the pass, written at exit.

/** One timed public call. The metric names its layer (the prefix before
 *  the first dot). hides_vm marks calls that may execute the VM inside
 *  (Runner misses, harness::table1): that hidden execute time is moved
 *  to the vm layer after the pass, using the library's vm.* registry. */
struct SpanRec
{
    std::string metric;
    std::string workload;
    int64_t t0 = 0;
    int64_t t1 = 0;
    int parent = -1;
    int phase = -1;
    int thread = 0;
    bool hides_vm = false;
};

/** Main-thread section of a pass; worker spans belong to the phase open
 *  when they start. Obs registry sums bracket it. */
struct PhaseRec
{
    std::string binary;
    int64_t t0 = 0, t1 = 0;
    int64_t run_us0 = 0, run_us1 = 0;
    int64_t decode_us0 = 0, decode_us1 = 0;
    int64_t jit_us0 = 0, jit_us1 = 0;
};

class Tracer
{
  public:
    bool on = false;

    int
    open(std::string metric, std::string workload, bool hides_vm,
         int parent)
    {
        std::lock_guard<std::mutex> lock(mu_);
        SpanRec rec;
        rec.metric = std::move(metric);
        rec.workload = std::move(workload);
        rec.t0 = nowNs();
        rec.parent = parent;
        rec.phase = phase_;
        rec.thread = threadIndex();
        rec.hides_vm = hides_vm;
        spans_.push_back(std::move(rec));
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id, const std::string &metric)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_[id].t1 = nowNs();
        if (!metric.empty())
            spans_[id].metric = metric;
    }

    void
    beginPhase(const std::string &binary)
    {
        std::lock_guard<std::mutex> lock(mu_);
        PhaseRec p;
        p.binary = binary;
        p.run_us0 = obs::histogram("vm.run_micros").sum();
        p.decode_us0 = obs::histogram("vm.decode_micros").sum();
        p.jit_us0 = obs::histogram("jit.compile_micros").sum();
        p.t0 = nowNs();
        phases_.push_back(p);
        phase_ = static_cast<int>(phases_.size()) - 1;
    }

    void
    endPhase()
    {
        std::lock_guard<std::mutex> lock(mu_);
        PhaseRec &p = phases_[phase_];
        p.t1 = nowNs();
        p.run_us1 = obs::histogram("vm.run_micros").sum();
        p.decode_us1 = obs::histogram("vm.decode_micros").sum();
        p.jit_us1 = obs::histogram("jit.compile_micros").sum();
        phase_ = -1;
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.clear();
        phases_.clear();
        phase_ = -1;
    }

    const std::vector<SpanRec> &spans() const { return spans_; }
    const std::vector<PhaseRec> &phases() const { return phases_; }

  private:
    int
    threadIndex()
    {
        static thread_local int index = -1;
        if (index < 0)
            index = next_thread_++;
        return index;
    }

    std::mutex mu_;
    std::vector<SpanRec> spans_;
    std::vector<PhaseRec> phases_;
    int phase_ = -1;
    int next_thread_ = 0;
};

Tracer g_tracer;
thread_local std::vector<int> t_open_spans;

/** RAII span around one public call; a no-op while tracing is off. */
class Span
{
  public:
    explicit Span(std::string metric, std::string workload = {},
                  bool hides_vm = false)
    {
        if (!g_tracer.on)
            return;
        int parent = t_open_spans.empty() ? -1 : t_open_spans.back();
        id_ = g_tracer.open(std::move(metric), std::move(workload),
                            hides_vm, parent);
        t_open_spans.push_back(id_);
    }

    ~Span()
    {
        if (id_ < 0)
            return;
        t_open_spans.pop_back();
        g_tracer.close(id_, rename_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Re-label the span once the call has told us what it did. */
    void rename(std::string metric) { rename_ = std::move(metric); }

  private:
    int id_ = -1;
    std::string rename_;
};

/** RAII main-thread phase; a no-op while tracing is off. */
class Phase
{
  public:
    explicit Phase(const std::string &binary) : active_(g_tracer.on)
    {
        if (active_)
            g_tracer.beginPhase(binary);
    }
    ~Phase()
    {
        if (active_)
            g_tracer.endPhase();
    }
    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;

  private:
    bool active_;
};

/**
 * Per-metric self time in wall seconds, and per-binary phase wall.
 *
 * Within a phase, each span's self time is its duration minus its
 * same-thread children. VM time the library's registry saw but no vm
 * span covered is moved out of hides_vm spans into the vm layer, split
 * by their duration. When worker spans overlap, the phase's busy time
 * exceeds its wall time and every metric is scaled by wall/busy, so the
 * layer sum equals the phase wall; wall time no span covered is
 * "driver.gap_s".
 */
struct Attribution
{
    std::map<std::string, double> metric_s;
    std::map<std::string, double> binary_s;
};

Attribution
attribute(const std::string &engine)
{
    Attribution out;
    const auto &spans = g_tracer.spans();
    const auto &phases = g_tracer.phases();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const SpanRec &s : spans) {
        if (s.parent >= 0)
            child_ns[s.parent] += s.t1 - s.t0;
    }
    for (size_t p = 0; p < phases.size(); ++p) {
        const PhaseRec &ph = phases[p];
        std::map<std::string, double> busy, breakdown;
        double direct_vm = 0.0, hiding = 0.0;
        std::vector<std::pair<size_t, double>> hiders;
        for (size_t i = 0; i < spans.size(); ++i) {
            const SpanRec &s = spans[i];
            if (s.phase != static_cast<int>(p))
                continue;
            double self = seconds(s.t1 - s.t0 - child_ns[i]);
            busy[s.metric] += self;
            // Direct VM runs carry "<engine>.<workload>" as their tag.
            if (s.metric == "vm.execute_s" && !s.workload.empty())
                breakdown["vm.execute_s." + s.workload] += self;
            if (s.metric.rfind("vm.", 0) == 0 ||
                s.metric.rfind("jit.", 0) == 0)
                direct_vm += self;
            if (s.hides_vm) {
                hiders.emplace_back(i, self);
                hiding += self;
            }
        }
        double run = (ph.run_us1 - ph.run_us0) / 1e6;
        double decode = (ph.decode_us1 - ph.decode_us0) / 1e6;
        double jit = (ph.jit_us1 - ph.jit_us0) / 1e6;
        double seen = run + decode + jit;
        double hidden = std::max(0.0, seen - direct_vm);
        if (hidden > 0.0 && hiding > 0.0 && seen > 0.0) {
            double frac = std::min(1.0, hidden / hiding);
            for (auto [i, self] : hiders) {
                const SpanRec &s = spans[i];
                double moved = self * frac;
                busy[s.metric] -= moved;
                busy["vm.execute_s"] += moved * run / seen;
                if (!s.workload.empty())
                    breakdown["vm.execute_s." + engine + "." + s.workload] +=
                        moved * run / seen;
                busy["vm.decode_s"] += moved * decode / seen;
                busy["jit.compile_s"] += moved * jit / seen;
            }
        }
        double total = 0.0;
        for (const auto &[metric, s] : busy)
            total += s;
        double wall = seconds(ph.t1 - ph.t0);
        double scale = total > wall && total > 0.0 ? wall / total : 1.0;
        for (const auto &[metric, s] : busy)
            out.metric_s[metric] += s * scale;
        // vm.execute_s.<engine>.<workload> breaks vm.execute_s down; it is
        // not a further share of the phase.
        for (const auto &[metric, s] : breakdown)
            out.metric_s[metric] += s * scale;
        out.metric_s["driver.gap_s"] += std::max(0.0, wall - total * scale);
        out.binary_s[ph.binary] += wall;
    }
    return out;
}

/** Chrome trace_event JSON of the recorded spans. */
void
writeSpans(const std::string &path)
{
    if (path.empty())
        return;
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    int64_t origin = g_tracer.spans().empty() ? 0 : g_tracer.spans()[0].t0;
    for (const PhaseRec &p : g_tracer.phases())
        origin = std::min(origin, p.t0);
    for (const SpanRec &s : g_tracer.spans()) {
        out << (first ? "" : ",") << "{\"name\":\"" << s.metric
            << "\",\"cat\":\"" << s.metric.substr(0, s.metric.find('.'))
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
            << ",\"ts\":" << (s.t0 - origin) / 1000
            << ",\"dur\":" << (s.t1 - s.t0) / 1000
            << ",\"args\":{\"workload\":\"" << s.workload << "\"}}";
        first = false;
    }
    for (const PhaseRec &p : g_tracer.phases()) {
        out << (first ? "" : ",") << "{\"name\":\"" << p.binary
            << "\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":1,\"tid\":999"
            << ",\"ts\":" << (p.t0 - origin) / 1000
            << ",\"dur\":" << (p.t1 - p.t0) / 1000 << "}";
        first = false;
    }
    out << "]}\n";
}

// ---------------------------------------------------------------------------
// Small helpers.

/** FNV-1a over a RunResult's engine-invariant content. */
struct Digest
{
    uint64_t h = 1469598103934665603ull;
    void
    bytes(const void *p, size_t n)
    {
        const unsigned char *c = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 1099511628211ull;
        }
    }
    void num(int64_t v) { bytes(&v, sizeof v); }
};

uint64_t
digestOf(const vm::RunResult &r)
{
    Digest d;
    const vm::RunStats &s = r.stats;
    for (int64_t v : {s.instructions, s.cond_branches, s.taken_branches,
                      s.jumps, s.direct_calls, s.indirect_calls,
                      s.direct_returns, s.indirect_returns, s.selects,
                      s.exit_code})
        d.num(v);
    d.num(static_cast<int64_t>(s.branches.size()));
    for (const auto &b : s.branches) {
        d.num(b.executed);
        d.num(b.taken);
    }
    d.num(static_cast<int64_t>(r.output.size()));
    d.bytes(r.output.data(), r.output.size());
    return d.h;
}

template <typename T>
void
shuffleBySeed(std::vector<T> &v, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::shuffle(v.begin(), v.end(), rng);
}

/** parallelFor over @p n tasks, submitted in a seed-permuted order. */
void
parallelPermuted(size_t n, uint64_t seed,
                 const std::function<void(size_t)> &fn)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    shuffleBySeed(order, seed);
    exec::parallelFor(exec::globalPool(), n,
                      [&](size_t k) { fn(order[k]); });
}

/** Host CPU seconds (user + system) this process has used so far. */
double
cpuSeconds()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
}

double
peakRssMib()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int64_t
traceBytes(const trace::Trace &t)
{
    return static_cast<int64_t>(t.deltasBytes().size() +
                                t.tagsBytes().size() +
                                t.takenBytes().size() +
                                t.sitesBytes().size() +
                                t.site_dict.size() * sizeof(int32_t));
}

std::string
jsonNum(double v)
{
    return strPrintf("%.9g", v);
}

std::string
jsonString(const std::string &v)
{
    std::string out = "\"";
    for (char c : v) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Flat JSON object writer for the result line. */
class JsonOut
{
  public:
    JsonOut &
    num(const std::string &key, double v)
    {
        sep();
        s_ += "\"" + key + "\":" + jsonNum(v);
        return *this;
    }
    JsonOut &
    raw(const std::string &key, const std::string &json)
    {
        sep();
        s_ += "\"" + key + "\":" + json;
        return *this;
    }
    std::string done() const { return s_ + "}"; }

  private:
    void
    sep()
    {
        s_ += s_.size() > 1 ? "," : "";
    }
    std::string s_ = "{";
};

std::string
mapJson(const std::map<std::string, double> &m)
{
    JsonOut j;
    for (const auto &[k, v] : m)
        j.num(k, v);
    return j.done();
}

std::string
listJson(const std::vector<double> &v)
{
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i)
        s += (i ? "," : "") + jsonNum(v[i]);
    return s + "]";
}

/** Failures are counted, reported by name, and never abort the run. */
struct Ledger
{
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> errors;
    std::mutex mu;

    void
    fail(const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mu);
        ++failed;
        if (errors.size() < 20)
            errors.push_back(what);
    }
    void
    attempt()
    {
        std::lock_guard<std::mutex> lock(mu);
        ++attempted;
    }
    std::string
    errorsJson()
    {
        std::string s = "[";
        for (size_t i = 0; i < errors.size(); ++i)
            s += (i ? "," : "") + jsonString(errors[i]);
        return s + "]";
    }
};

struct Args
{
    std::string cmd;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int jobs = 4;
    std::string golden, cache, mode, spans;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    if (argc < 2)
        throw Error("usage: perfbench_driver <command> [options]");
    a.cmd = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--jobs")
            a.jobs = std::stoi(v);
        else if (k == "--golden")
            a.golden = v;
        else if (k == "--cache")
            a.cache = v;
        else if (k == "--mode")
            a.mode = v;
        else if (k == "--spans")
            a.spans = v;
        else
            throw Error("unknown option " + k);
    }
    return a;
}

/** First workloads::all() call, timed: the registry build (datagen). */
double
timeRegistry()
{
    Span span("workloads.registry_s");
    int64_t t0 = nowNs();
    (void)workloads::all();
    return seconds(nowNs() - t0);
}

const workloads::Dataset &
datasetOf(const std::string &workload, const std::string &dataset)
{
    for (const auto &d : workloads::get(workload).datasets)
        if (d.name == dataset)
            return d;
    throw Error("no dataset " + workload + "/" + dataset);
}

// ---------------------------------------------------------------------------
// setup: registry + compile every workload (the per-process start-up a
// paper binary pays before its first run).

int
cmdSetup(const Args &)
{
    harness::Runner runner;
    for (const auto &w : workloads::all())
        (void)runner.program(w.name);
    return 0;
}

// ---------------------------------------------------------------------------
// vm-matrix: every (workload, dataset) on kFast and kTrace, serial, no
// observer, no Runner cache.

std::map<std::string, std::string>
readGoldenLines(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    if (!in)
        throw Error("cannot read golden file " + path);
    std::string line;
    while (std::getline(in, line)) {
        auto sp = line.find(' ');
        auto sp2 = line.find(' ', sp + 1);
        if (sp == std::string::npos || sp2 == std::string::npos)
            continue;
        out[line.substr(0, sp2)] = line.substr(sp2 + 1);
    }
    return out;
}

struct MatrixPass
{
    double wall_s = 0.0;
    std::map<std::string, double> run_s;       ///< per engine
    std::map<std::string, int64_t> insns;      ///< per engine
    double decode_s = 0.0;      ///< Machine::decodeMicros, summed
    double jit_compile_s = 0.0; ///< Machine::jitCompileMicros, summed
    int64_t runs = 0;
    std::map<std::string, std::array<int64_t, 4>> jit; ///< per workload
};

int
cmdMatrix(const Args &args)
{
    Ledger ledger;
    double registry = timeRegistry();
    // Compile the 14 workloads three times (fresh Runner each); the
    // median is the compile part of setup_s, the last set is measured.
    std::vector<double> compiles;
    std::unique_ptr<harness::Runner> runner;
    int64_t static_insns = 0;
    for (int rep = 0; rep < 3; ++rep) {
        runner = std::make_unique<harness::Runner>();
        int64_t t0 = nowNs();
        static_insns = 0;
        for (const auto &w : workloads::all())
            static_insns += runner->program(w.name).staticSize();
        compiles.push_back(seconds(nowNs() - t0));
    }
    std::sort(compiles.begin(), compiles.end());
    double setup_s = registry + compiles[1];
    auto golden = readGoldenLines(args.golden);

    const auto cells = predict::zoo::allCells();
    const vm::Engine engines[] = {vm::Engine::kFast, vm::Engine::kTrace};

    auto runPass = [&](uint64_t pass_seed, bool traced) {
        MatrixPass pass;
        g_tracer.clear();
        g_tracer.on = traced;
        auto order = cells;
        shuffleBySeed(order, pass_seed);
        int64_t t0 = nowNs();
        Phase phase("vm-matrix");
        for (size_t c = 0; c < order.size(); ++c) {
            const auto &cell = order[c];
            // Engines alternate per cell, so drift in host speed falls on
            // both sides of sim_mips.fast / sim_mips.trace alike.
            for (size_t e = 0; e < 2; ++e) {
                const vm::Engine engine = engines[(c + e) % 2];
                const std::string ename(vm::engineName(engine));
                ledger.attempt();
                const std::string key = cell.workload + " " + cell.dataset;
                try {
                    const isa::Program &prog =
                        runner->program(cell.workload);
                    const workloads::Dataset &ds =
                        datasetOf(cell.workload, cell.dataset);
                    std::unique_ptr<vm::Machine> machine;
                    {
                        Span span("vm.decode_s", cell.workload);
                        machine = std::make_unique<vm::Machine>(prog,
                                                                engine);
                    }
                    vm::RunResult r;
                    int64_t r0 = nowNs();
                    {
                        Span span("vm.execute_s",
                                  ename + "." + cell.workload);
                        r = machine->run(ds.input, benchLimits());
                    }
                    pass.run_s[ename] += seconds(nowNs() - r0);
                    pass.insns[ename] += r.stats.instructions;
                    pass.decode_s += machine->decodeMicros() / 1e6;
                    pass.jit_compile_s += machine->jitCompileMicros() / 1e6;
                    ++pass.runs;
                    if (engine == vm::Engine::kTrace) {
                        auto &j = pass.jit[cell.workload];
                        j[0] += r.jit.trace_instructions;
                        j[1] += r.stats.instructions;
                        j[2] += r.jit.side_exits;
                        j[3] += r.jit.guards;
                    }
                    auto it = golden.find(key);
                    std::string want =
                        it == golden.end() ? "" : it->second;
                    std::string got = strPrintf(
                        "%lld %016llx",
                        static_cast<long long>(r.stats.instructions),
                        static_cast<unsigned long long>(digestOf(r)));
                    if (got != want)
                        ledger.fail("vm-matrix " + ename + " " + key +
                                    ": got " + got + " want " + want);
                } catch (const std::exception &e) {
                    ledger.fail("vm-matrix " + ename + " " + key + ": " +
                                e.what());
                }
            }
        }
        pass.wall_s = seconds(nowNs() - t0);
        g_tracer.on = false;
        return pass;
    };

    std::vector<MatrixPass> passes;
    int64_t start = nowNs();
    uint64_t pass_seed = args.seed;
    do {
        passes.push_back(runPass(pass_seed++, false));
    } while (seconds(nowNs() - start) < args.seconds);

    JsonOut j;
    std::vector<double> walls, mips_fast, mips_trace;
    for (const auto &p : passes) {
        walls.push_back(p.wall_s);
        mips_fast.push_back(p.insns.at("fast") / p.run_s.at("fast") / 1e6);
        mips_trace.push_back(p.insns.at("trace") / p.run_s.at("trace") /
                             1e6);
    }
    // Exact counts must repeat across passes.
    for (const auto &p : passes)
        if (p.insns != passes[0].insns || p.runs != passes[0].runs)
            ledger.fail("vm-matrix: instruction or run count differs "
                        "between passes");
    if (passes[0].insns.at("fast") != passes[0].insns.at("trace"))
        ledger.fail("vm-matrix: fast and trace retired different "
                    "instruction counts");

    if (args.trace) {
        double cpu0 = cpuSeconds();
        MatrixPass traced = runPass(args.seed, true);
        double cpu = cpuSeconds() - cpu0;
        if (traced.insns != passes[0].insns)
            ledger.fail("vm-matrix: traced pass counts differ");
        Attribution attr = attribute("fast");
        std::map<std::string, double> layer = attr.metric_s;
        // Decode/compile come from the Machine accessors (exact split of
        // the construction span); execute from the run spans.
        double construct = layer["vm.decode_s"];
        layer["vm.decode_s"] = traced.decode_s;
        layer["jit.compile_s"] = traced.jit_compile_s;
        layer["driver.gap_s"] += std::max(
            0.0, construct - layer["vm.decode_s"] - layer["jit.compile_s"]);
        layer["workloads.registry_s"] = registry;
        for (const auto &[w, c] : traced.jit) {
            layer["jit.trace_insn_frac." + w] =
                c[1] > 0 ? static_cast<double>(c[0]) / c[1] : 0.0;
            layer["jit.side_exit_rate." + w] =
                c[3] > 0 ? static_cast<double>(c[2]) / c[3] : 0.0;
        }
        layer["vm.instructions"] = static_cast<double>(
            traced.insns.at("fast") + traced.insns.at("trace"));
        layer["vm.runs"] = static_cast<double>(traced.runs);
        layer["compiler.static_insns"] = static_cast<double>(static_insns);
        layer["sim_mips.fast"] =
            traced.insns.at("fast") / traced.run_s.at("fast") / 1e6;
        layer["sim_mips.trace"] =
            traced.insns.at("trace") / traced.run_s.at("trace") / 1e6;
        layer["exec.busy_frac"] =
            cpu / (traced.wall_s * std::max(1, args.jobs));
        j.raw("layer", mapJson(layer))
            .num("traced_wall_s", traced.wall_s);
        writeSpans(args.spans);
    }
    j.num("setup_s", setup_s)
        .raw("wall_s", listJson(walls))
        .raw("sim_mips_fast", listJson(mips_fast))
        .raw("sim_mips_trace", listJson(mips_trace))
        .num("peak_rss_mib", peakRssMib())
        .num("attempted", static_cast<double>(ledger.attempted))
        .num("failed", static_cast<double>(ledger.failed))
        .raw("errors", ledger.errorsJson());
    std::printf("%s\n", j.done().c_str());
    return 0;
}

int
cmdGoldenMatrix(const Args &)
{
    harness::Runner runner;
    for (const auto &cell : predict::zoo::allCells()) {
        const isa::Program &prog = runner.program(cell.workload);
        for (const auto &d : workloads::get(cell.workload).datasets) {
            if (d.name != cell.dataset)
                continue;
            // By name, so deleting the engine breaks only this command.
            vm::Machine machine(prog, vm::parseEngineName("switch"));
            vm::RunResult r = machine.run(d.input, benchLimits());
            std::printf("%s %s %lld %016llx\n", cell.workload.c_str(),
                        cell.dataset.c_str(),
                        static_cast<long long>(r.stats.instructions),
                        static_cast<unsigned long long>(digestOf(r)));
        }
    }
    return 0;
}

// ---------------------------------------------------------------------------
// mirror: the 15 paper-report binaries' public calls, in their order and
// with each binary's fresh Runner, against the cache state the report
// workload runs on. Each binary is a sequence of phases.

struct MirrorCounts
{
    harness::CacheStats cache;
    int64_t trace_events = 0;
    int64_t trace_bytes = 0;
    int64_t static_insns = 0;
    std::mutex mu; ///< guards the trace totals

    void
    addCache(const harness::CacheStats &c)
    {
        cache.hits += c.hits;
        cache.misses += c.misses;
        cache.read_failures += c.read_failures;
        cache.bytes_read += c.bytes_read;
        cache.bytes_written += c.bytes_written;
        cache.trace_hits += c.trace_hits;
        cache.trace_misses += c.trace_misses;
        cache.trace_read_failures += c.trace_read_failures;
        cache.trace_bytes_read += c.trace_bytes_read;
        cache.trace_bytes_written += c.trace_bytes_written;
    }
    void
    addTrace(const trace::Trace &t)
    {
        std::lock_guard<std::mutex> lock(mu);
        trace_events += t.events;
        trace_bytes += traceBytes(t);
    }
};

class Mirror
{
  public:
    Mirror(uint64_t seed, Ledger &ledger) : seed_(seed), ledger_(ledger) {}

    MirrorCounts counts;

    void
    run()
    {
        const std::vector<std::pair<const char *, void (Mirror::*)()>>
            binaries = {
                {"table1_dead_code", &Mirror::table1},
                {"fig1_no_prediction", &Mirror::fig1},
                {"fig2_predicted", &Mirror::fig2},
                {"table3_fortran", &Mirror::table3},
                {"fig3_cross_dataset", &Mirror::fig3},
                {"misc_observations", &Mirror::misc},
                {"heuristics", &Mirror::heuristics},
                {"combine_ablation", &Mirror::combine},
                {"dynamic_baselines", &Mirror::dynamicBaselines},
                {"runlength_distribution", &Mirror::runlength},
                {"coverage_analysis", &Mirror::coverage},
                {"trace_selection", &Mirror::traceSelection},
                {"layout_optimization", &Mirror::layout},
                {"inlining", &Mirror::inlining},
                {"select_ablation", &Mirror::selectAblation},
            };
        for (const auto &[name, fn] : binaries) {
            binary_ = name;
            ledger_.attempt();
            try {
                (this->*fn)();
            } catch (const std::exception &e) {
                ledger_.fail(std::string("mirror ") + name + ": " +
                             e.what());
            }
            if (runner_) {
                counts.addCache(runner_->cacheStats());
                runner_.reset();
            }
        }
    }

  private:
    harness::Runner &
    fresh()
    {
        runner_ = std::make_unique<harness::Runner>();
        return *runner_;
    }

    /** Compile every workload on @p r (compiler layer). */
    void
    compileAll(harness::Runner &r)
    {
        Phase phase(binary_);
        const auto &all = workloads::all();
        std::vector<int64_t> insns(all.size());
        parallelPermuted(all.size(), seed_, [&](size_t i) {
            Span span("compiler.compile_s", all[i].name);
            insns[i] = r.program(all[i].name).staticSize();
        });
        for (int64_t n : insns)
            counts.static_insns += n;
    }

    /** Runner::stats over @p cells (harness layer; misses run the VM). */
    void
    statsOf(harness::Runner &r,
            const std::vector<std::pair<std::string, std::string>> &cells)
    {
        Phase phase(binary_);
        parallelPermuted(cells.size(), seed_, [&](size_t i) {
            Span span("harness.stats_s", cells[i].first, true);
            (void)r.stats(cells[i].first, cells[i].second);
        });
    }

    static std::vector<std::pair<std::string, std::string>>
    allCells()
    {
        std::vector<std::pair<std::string, std::string>> cells;
        for (const auto &w : workloads::all())
            for (const auto &d : w.datasets)
                cells.emplace_back(w.name, d.name);
        return cells;
    }

    static std::vector<std::pair<std::string, std::string>>
    primaryCells()
    {
        std::vector<std::pair<std::string, std::string>> cells;
        for (const auto &w : workloads::all())
            cells.emplace_back(w.name, w.datasets.front().name);
        return cells;
    }

    /** Runner::traceOf, labelled by what the call did. */
    const trace::Trace &
    traceOf(harness::Runner &r, const std::string &w, const std::string &d,
            const isa::Program *variant = nullptr)
    {
        int64_t misses = r.cacheStats().trace_misses;
        Span span("harness.trace_s", w, true);
        const trace::Trace &t =
            variant ? r.traceOf(w, d, *variant) : r.traceOf(w, d);
        if (r.cacheStats().trace_misses != misses)
            span.rename("trace.record_s");
        counts.addTrace(t);
        return t;
    }

    vm::RunResult
    directRun(const isa::Program &prog, const std::string &w,
              const std::string &input)
    {
        std::unique_ptr<vm::Machine> machine;
        {
            Span span("vm.decode_s", w);
            machine = std::make_unique<vm::Machine>(prog);
        }
        Span span("vm.execute_s",
                  std::string(vm::engineName(machine->engine())) + "." + w);
        return machine->run(input, benchLimits());
    }

    template <typename Rows, typename Cells>
    void
    render(const Rows &rows, Cells &&cells)
    {
        Phase phase(binary_);
        Span span("metrics.render_s");
        metrics::TextTable table;
        for (const auto &row : rows)
            table.addRow(cells(row));
        sink_ += table.render().size();
    }

    void
    table1()
    {
        std::vector<harness::Table1Row> rows;
        {
            Phase phase(binary_);
            Span span("analysis.other_s", "", true);
            rows = harness::table1();
        }
        render(rows, [](const auto &r) {
            return std::vector<std::string>{
                r.program, strPrintf("%.1f%%", 100.0 * r.dead_fraction)};
        });
    }

    void
    fig1()
    {
        auto &r = fresh();
        compileAll(r);
        statsOf(r, allCells());
        std::vector<harness::Fig1Row> rows;
        {
            Phase phase(binary_);
            Span span("analysis.other_s");
            rows = harness::figure1(r);
        }
        render(rows, [](const auto &x) {
            return std::vector<std::string>{
                x.program, x.dataset, strPrintf("%.1f", x.per_break),
                strPrintf("%.1f", x.per_break_with_calls),
                metrics::asciiBar(x.per_break, 200.0, 40)};
        });
    }

    void
    fig2()
    {
        auto &r = fresh();
        compileAll(r);
        statsOf(r, allCells());
        std::vector<harness::Fig2Row> rows;
        {
            Phase phase(binary_);
            Span span("analysis.figure2_s");
            rows = harness::figure2(r);
        }
        render(rows, [](const auto &x) {
            return std::vector<std::string>{
                x.program, x.dataset, strPrintf("%.1f", x.self_per_break),
                strPrintf("%.1f", x.others_per_break),
                metrics::asciiBar(x.self_per_break, 500.0, 40)};
        });
    }

    void
    table3()
    {
        auto &r = fresh();
        compileAll(r);
        const char *programs[] = {"tomcatv", "matrix300", "nasa7",
                                  "fpppp", "lfk", "doduc"};
        std::vector<std::pair<std::string, std::string>> cells;
        for (const char *p : programs)
            for (const auto &d : r.datasetNames(p))
                cells.emplace_back(p, d);
        statsOf(r, cells);
        std::vector<std::pair<std::string, double>> rows;
        {
            Phase phase(binary_);
            Span span("analysis.other_s");
            for (const auto &[p, d] : cells)
                rows.emplace_back(p + "/" + d,
                                  harness::selfPredictedPerBreak(r, p, d));
        }
        render(rows, [](const auto &x) {
            return std::vector<std::string>{x.first,
                                            strPrintf("%.0f", x.second)};
        });
    }

    void
    fig3()
    {
        auto &r = fresh();
        compileAll(r);
        statsOf(r, allCells());
        std::vector<harness::Fig3Row> rows;
        {
            Phase phase(binary_);
            Span span("analysis.figure3_s");
            rows = harness::figure3(r);
        }
        render(rows, [](const auto &x) {
            return std::vector<std::string>{
                x.program, x.dataset, strPrintf("%.0f%%", x.best_pct),
                strPrintf("%.0f%%", x.worst_pct), x.best_predictor,
                x.worst_predictor};
        });
    }

    void
    misc()
    {
        auto &r = fresh();
        compileAll(r);
        statsOf(r, allCells());
        std::vector<std::pair<std::string, double>> rows;
        {
            Phase phase(binary_);
            Span span("analysis.other_s");
            for (const auto &[p, d] :
                 {std::pair<const char *, const char *>{"fpppp", "4atoms"},
                  {"li", "8queens"}}) {
                const auto &stats = r.stats(p, d);
                predict::ProfilePredictor self(harness::profileOf(r, p, d));
                rows.emplace_back(
                    p, predict::evaluate(stats, self).percentCorrect() +
                           harness::selfPredictedPerBreak(r, p, d));
            }
            for (const auto &w : workloads::all()) {
                double lo = 101.0;
                for (const auto &d : w.datasets)
                    lo = std::min(lo, r.stats(w.name, d.name).percentTaken());
                rows.emplace_back(w.name, lo);
            }
            for (const auto &[target, other] :
                 {std::pair<const char *, const char *>{"compress",
                                                        "uncompress"},
                  {"uncompress", "compress"}}) {
                const auto &stats = r.stats(target, "long");
                double self = harness::selfPredictedPerBreak(r, target,
                                                             "long");
                double same = harness::othersPredictedPerBreak(
                    r, target, "long", profile::MergeMode::kScaled);
                predict::ProfilePredictor cross(
                    harness::profileOf(r, other, "long"));
                double cross_break =
                    metrics::breaksWithPredictor(stats, cross)
                        .instructionsPerBreak();
                rows.emplace_back(target, self + same + cross_break);
            }
        }
        render(rows, [](const auto &x) {
            return std::vector<std::string>{x.first,
                                            strPrintf("%.1f", x.second)};
        });
    }

    void
    heuristics()
    {
        auto &r = fresh();
        compileAll(r);
        statsOf(r, allCells());
        std::vector<harness::HeuristicRow> rows;
        {
            Phase phase(binary_);
            Span span("analysis.other_s");
            rows = harness::heuristics(r);
        }
        render(rows, [](const auto &x) {
            return std::vector<std::string>{
                x.program, x.dataset, strPrintf("%.1f", x.self_per_break),
                strPrintf("%.1f", x.others_per_break),
                strPrintf("%.1f", x.backward_taken_per_break),
                strPrintf("%.1f", x.opcode_rules_per_break),
                strPrintf("%.1f", x.always_taken_per_break)};
        });
    }

    void
    combine()
    {
        auto &r = fresh();
        compileAll(r);
        statsOf(r, allCells());
        std::vector<harness::CombineRow> rows;
        {
            Phase phase(binary_);
            Span span("analysis.other_s");
            rows = harness::combineAblation(r);
        }
        render(rows, [](const auto &x) {
            return std::vector<std::string>{
                x.program, x.dataset, strPrintf("%.1f", x.scaled_per_break),
                strPrintf("%.1f", x.unscaled_per_break),
                strPrintf("%.1f", x.polling_per_break)};
        });
    }

    void
    dynamicBaselines()
    {
        auto &r = fresh();
        compileAll(r);
        std::vector<std::pair<std::string, double>> rows;
        Phase phase(binary_);
        for (const auto &w : workloads::all()) {
            const auto &d = w.datasets.front();
            const isa::Program &prog = r.program(w.name);
            predict::OneBitPredictor one_bit(prog.branch_sites.size());
            predict::TwoBitPredictor two_bit(prog.branch_sites.size());
            predict::GSharePredictor gshare(12, 12);
            const trace::Trace &tr = traceOf(r, w.name, d.name);
            {
                Span span("predict.baselines_s", w.name);
                trace::replay(tr, {&one_bit, &two_bit, &gshare});
            }
            Span span("analysis.other_s", w.name, true);
            const auto &stats = r.stats(w.name, d.name);
            predict::ProfilePredictor self(
                harness::profileOf(r, w.name, d.name));
            double pct = predict::evaluate(stats, self).percentCorrect();
            if (w.datasets.size() > 1) {
                std::vector<profile::ProfileDb> others;
                for (size_t i = 1; i < w.datasets.size(); ++i)
                    others.push_back(
                        harness::profileOf(r, w.name, w.datasets[i].name));
                profile::ProfileDb merged = profile::ProfileDb::merge(
                    others, profile::MergeMode::kScaled);
                predict::ProfilePredictor other_pred(merged);
                pct += predict::evaluate(stats, other_pred).percentCorrect();
            }
            rows.emplace_back(w.name, pct + one_bit.percentCorrect() +
                                          two_bit.percentCorrect() +
                                          gshare.percentCorrect());
        }
        Span span("metrics.render_s");
        metrics::TextTable table;
        for (const auto &x : rows)
            table.addRow({x.first, strPrintf("%.1f", x.second)});
        sink_ += table.render().size();
    }

    void
    runlength()
    {
        auto &r = fresh();
        compileAll(r);
        std::vector<std::pair<std::string, double>> rows;
        Phase phase(binary_);
        for (const char *name :
             {"tomcatv", "fpppp", "doduc", "spice", "li", "eqntott",
              "compress", "espresso", "mcc", "spiff"}) {
            const auto &dataset = workloads::get(name).datasets.front();
            std::unique_ptr<predict::ProfilePredictor> self;
            {
                Span span("analysis.other_s", name, true);
                self = std::make_unique<predict::ProfilePredictor>(
                    harness::profileOf(r, name, dataset.name));
            }
            ilp::RunLengthAnalyzer analyzer(*self);
            const trace::Trace &tr = traceOf(r, name, dataset.name);
            Span span("ilp.runlength_s", name);
            trace::replay(tr, analyzer);
            auto s = std::move(analyzer).summary(tr.stats.instructions);
            rows.emplace_back(name, s.mean + s.geomean +
                                        s.fractionInRunsAtLeast(64));
        }
        Span span("metrics.render_s");
        metrics::TextTable table;
        for (const auto &x : rows)
            table.addRow({x.first, strPrintf("%.1f", x.second)});
        sink_ += table.render().size();
    }

    void
    coverage()
    {
        auto &r = fresh();
        compileAll(r);
        statsOf(r, allCells());
        std::vector<harness::CoverageRow> rows;
        {
            Phase phase(binary_);
            Span span("analysis.coverage_s");
            rows = harness::coverageStudy(r);
        }
        std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
            return a.quality_pct < b.quality_pct;
        });
        render(rows, [](const auto &x) {
            return std::vector<std::string>{
                x.program, x.target, x.predictor,
                strPrintf("%.0f%%", x.quality_pct),
                strPrintf("%.1f%%", x.coverage_gap_pct),
                strPrintf("%.1f%%", x.disagreement_pct)};
        });
    }

    void
    traceSelection()
    {
        auto &r = fresh();
        compileAll(r);
        statsOf(r, primaryCells());
        std::vector<std::pair<std::string, double>> rows;
        Phase phase(binary_);
        for (const auto &w : workloads::all()) {
            const auto &dataset = w.datasets.front();
            const isa::Program &prog = r.program(w.name);
            std::unique_ptr<profile::ProfileDb> db;
            {
                Span span("analysis.other_s", w.name, true);
                db = std::make_unique<profile::ProfileDb>(
                    harness::profileOf(r, w.name, dataset.name));
            }
            Span span("ilp.select_traces_s", w.name);
            predict::ProfilePredictor feedback(*db);
            predict::HeuristicPredictor backward(
                prog, predict::Heuristic::kBackwardTaken);
            predict::HeuristicPredictor never(
                prog, predict::Heuristic::kAlwaysNotTaken);
            double sum =
                ilp::selectTraces(prog, feedback, *db).instructionsPerExit() +
                ilp::selectTraces(prog, backward, *db).instructionsPerExit() +
                ilp::selectTraces(prog, never, *db).instructionsPerExit();
            rows.emplace_back(w.name, sum);
        }
        Span span("metrics.render_s");
        metrics::TextTable table;
        for (const auto &x : rows)
            table.addRow({x.first, strPrintf("%.1f", x.second)});
        sink_ += table.render().size();
    }

    void
    layout()
    {
        auto &r = fresh();
        compileAll(r);
        statsOf(r, primaryCells());
        std::vector<std::pair<std::string, double>> rows;
        Phase phase(binary_);
        for (const auto &w : workloads::all()) {
            const auto &dataset = w.datasets.front();
            const isa::Program &base = r.program(w.name);
            const auto &baseline = r.stats(w.name, dataset.name);
            std::unique_ptr<profile::ProfileDb> db;
            {
                Span span("analysis.other_s", w.name, true);
                db = std::make_unique<profile::ProfileDb>(
                    harness::profileOf(r, w.name, dataset.name));
            }
            isa::Program with_feedback = base;
            {
                Span span("compiler.layout_s", w.name);
                predict::ProfilePredictor feedback(*db);
                layoutProgram(with_feedback, feedback, *db);
            }
            const vm::RunStats feedback_stats =
                traceOf(r, w.name, dataset.name, &with_feedback).stats;
            isa::Program with_heuristic = base;
            {
                Span span("compiler.layout_s", w.name);
                predict::HeuristicPredictor backward(
                    base, predict::Heuristic::kBackwardTaken);
                layoutProgram(with_heuristic, backward, *db);
            }
            auto run = directRun(with_heuristic, w.name, dataset.input);
            rows.emplace_back(
                w.name, static_cast<double>(baseline.jumps +
                                            feedback_stats.jumps +
                                            run.stats.jumps));
        }
        Span span("metrics.render_s");
        metrics::TextTable table;
        for (const auto &x : rows)
            table.addRow({x.first, strPrintf("%.1f", x.second)});
        sink_ += table.render().size();
    }

    void
    inlining()
    {
        auto &r = fresh();
        compileAll(r);
        statsOf(r, primaryCells());
        std::vector<std::pair<std::string, double>> rows;
        Phase phase(binary_);
        for (const auto &w : workloads::all()) {
            const auto &dataset = w.datasets.front();
            const auto &baseline = r.stats(w.name, dataset.name);
            std::unique_ptr<predict::ProfilePredictor> self;
            double before = 0.0;
            {
                Span span("analysis.other_s", w.name, true);
                self = std::make_unique<predict::ProfilePredictor>(
                    harness::profileOf(r, w.name, dataset.name));
                before = metrics::breaksWithPredictor(
                             baseline, *self, {.count_calls = false})
                             .instructionsPerBreak() +
                         metrics::breaksWithPredictor(
                             baseline, *self, {.count_calls = true})
                             .instructionsPerBreak();
            }
            isa::Program inlined = r.program(w.name);
            {
                Span span("compiler.inline_s", w.name);
                inlineProgram(inlined);
            }
            auto run = directRun(inlined, w.name, dataset.input);
            Span span("analysis.other_s", w.name);
            rows.emplace_back(
                w.name, before + metrics::breaksWithPredictor(
                                     run.stats, *self, {.count_calls = true})
                                     .instructionsPerBreak());
        }
        Span span("metrics.render_s");
        metrics::TextTable table;
        for (const auto &x : rows)
            table.addRow({x.first, strPrintf("%.1f", x.second)});
        sink_ += table.render().size();
    }

    void
    selectAblation()
    {
        CompileOptions with_select = harness::Runner::experimentOptions();
        CompileOptions without_select = with_select;
        without_select.use_select = false;
        harness::Runner on(with_select);
        harness::Runner off(without_select);
        compileAll(on);
        compileAll(off);
        const auto &all = workloads::all();
        std::vector<double> rows(all.size());
        {
            Phase phase(binary_);
            parallelPermuted(all.size(), seed_, [&](size_t i) {
                const auto &w = all[i];
                const std::string &dataset = w.datasets.front().name;
                const vm::RunStats *s_on = nullptr, *s_off = nullptr;
                {
                    Span span("harness.stats_s", w.name, true);
                    s_on = &on.stats(w.name, dataset);
                    s_off = &off.stats(w.name, dataset);
                }
                Span span("analysis.other_s", w.name);
                auto per_break = [&](harness::Runner &runner,
                                     const vm::RunStats &stats) {
                    profile::ProfileDb db(
                        w.name, runner.program(w.name).fingerprint(), stats);
                    predict::ProfilePredictor self(db);
                    return metrics::breaksWithPredictor(stats, self)
                        .instructionsPerBreak();
                };
                rows[i] = per_break(on, *s_on) + per_break(off, *s_off);
            });
        }
        render(rows, [](double x) {
            return std::vector<std::string>{strPrintf("%.1f", x)};
        });
        counts.addCache(on.cacheStats());
        counts.addCache(off.cacheStats());
    }

    uint64_t seed_;
    Ledger &ledger_;
    std::string binary_;
    std::unique_ptr<harness::Runner> runner_;
    size_t sink_ = 0; ///< rendered bytes (keeps render() observable)
};

int
cmdMirror(const Args &args)
{
    Ledger ledger;
    if (args.mode != "cold" && args.mode != "warm")
        throw Error("mirror --mode must be cold or warm");
    double registry = timeRegistry();

    // One untraced and one traced pass, each against the cache state the
    // report workload measures: an empty directory (cold) or the filled
    // one (warm, which the pass must not write to).
    auto onePass = [&](bool traced, const std::string &dir,
                       std::map<std::string, double> &layer) {
        setenv("IFPROB_CACHE", dir.c_str(), 1);
        g_tracer.clear();
        g_tracer.on = traced;
        int64_t runs0 = obs::counter("vm.runs").value();
        int64_t insns0 = obs::counter("vm.instructions").value();
        Mirror mirror(args.seed, ledger);
        int64_t t0 = nowNs();
        mirror.run();
        double wall = seconds(nowNs() - t0);
        g_tracer.on = false;
        const auto &c = mirror.counts.cache;
        layer["vm.runs"] =
            static_cast<double>(obs::counter("vm.runs").value() - runs0);
        layer["vm.instructions"] = static_cast<double>(
            obs::counter("vm.instructions").value() - insns0);
        layer["trace.events"] = static_cast<double>(mirror.counts.trace_events);
        layer["trace.bytes"] = static_cast<double>(mirror.counts.trace_bytes);
        layer["compiler.static_insns"] =
            static_cast<double>(mirror.counts.static_insns);
        layer["harness.hits"] = static_cast<double>(c.hits);
        layer["harness.misses"] = static_cast<double>(c.misses);
        layer["harness.trace_hits"] = static_cast<double>(c.trace_hits);
        layer["harness.trace_misses"] = static_cast<double>(c.trace_misses);
        layer["harness.hit_frac"] =
            static_cast<double>(c.hits) /
            std::max<int64_t>(1, c.hits + c.misses + c.read_failures);
        layer["harness.trace_hit_frac"] =
            static_cast<double>(c.trace_hits) /
            std::max<int64_t>(1, c.trace_hits + c.trace_misses +
                                     c.trace_read_failures);
        layer["harness.read_failures"] =
            static_cast<double>(c.read_failures + c.trace_read_failures);
        layer["harness.bytes_read"] =
            static_cast<double>(c.bytes_read + c.trace_bytes_read);
        layer["harness.bytes_written"] =
            static_cast<double>(c.bytes_written + c.trace_bytes_written);
        if (args.mode == "warm" && c.misses + c.trace_misses != 0)
            ledger.fail(strPrintf("mirror warm: %lld stats and %lld trace "
                                  "misses",
                                  static_cast<long long>(c.misses),
                                  static_cast<long long>(c.trace_misses)));
        return wall;
    };

    std::map<std::string, double> untraced_counts, layer;
    std::string dir0 = args.cache, dir1 = args.cache;
    if (args.mode == "cold") {
        dir0 = args.cache + "/mirror-untraced";
        dir1 = args.cache + "/mirror-traced";
    }
    double untraced_wall = onePass(false, dir0, untraced_counts);
    double traced_wall = onePass(true, dir1, layer);
    for (const char *exact :
         {"vm.runs", "vm.instructions", "trace.events", "trace.bytes",
          "compiler.static_insns", "harness.hits", "harness.misses",
          "harness.trace_hits", "harness.trace_misses"})
        if (untraced_counts[exact] != layer[exact])
            ledger.fail(strPrintf("mirror %s: %s differs between passes "
                                  "(%.0f vs %.0f)",
                                  args.mode.c_str(), exact,
                                  untraced_counts[exact], layer[exact]));
    Attribution attr = attribute(std::string(
        vm::engineName(vm::defaultEngine())));
    for (const auto &[k, v] : attr.metric_s)
        layer[k] += v;
    layer["workloads.registry_s"] = registry;
    writeSpans(args.spans);

    JsonOut j;
    j.raw("layer", mapJson(layer))
        .raw("binary_s", mapJson(attr.binary_s))
        .num("untraced_wall_s", untraced_wall)
        .num("traced_wall_s", traced_wall)
        .num("attempted", static_cast<double>(ledger.attempted))
        .num("failed", static_cast<double>(ledger.failed))
        .raw("errors", ledger.errorsJson());
    std::printf("%s\n", j.done().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args = parseArgs(argc, argv);
        exec::setPlannedJobs(std::max(1, args.jobs));
        if (!args.cache.empty())
            setenv("IFPROB_CACHE", args.cache.c_str(), 1);
        if (args.cmd == "setup")
            return cmdSetup(args);
        if (args.cmd == "matrix")
            return cmdMatrix(args);
        if (args.cmd == "mirror")
            return cmdMirror(args);
        if (args.cmd == "golden-matrix")
            return cmdGoldenMatrix(args);
        throw Error("unknown command " + args.cmd);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}

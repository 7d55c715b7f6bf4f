#include "moea/checkpoint.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace borg::moea {

namespace {

// v2: per-section inline solutions, with the archive record carrying the
// ε vector so a checkpoint can never be silently re-boxed by a
// differently-configured loader. v3 keeps every section and its order but
// serializes solution payloads once, as a dense pool section the
// population and archive reference by row index — the on-disk mirror of
// the SolutionPool arena (DESIGN.md §15).
constexpr const char* kMagicV2 = "borg-checkpoint-v2";
constexpr const char* kMagicV3 = "borg-checkpoint-v3";

void write_double(std::ostream& os, double value) {
    // max_digits10 decimal digits round-trip IEEE doubles exactly.
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.*g",
                  std::numeric_limits<double>::max_digits10, value);
    os << buf;
}

void write_pool_row(std::ostream& os, const Solution& s) {
    // Dense: arity lives in the pool header, not on every row.
    os << "row " << s.operator_index << ' ' << (s.evaluated ? 1 : 0);
    for (const double v : s.variables) {
        os << ' ';
        write_double(os, v);
    }
    for (const double v : s.objectives) {
        os << ' ';
        write_double(os, v);
    }
    for (const double v : s.constraints) {
        os << ' ';
        write_double(os, v);
    }
    os << '\n';
}

[[noreturn]] void fail(const std::string& what) {
    throw CheckpointError("checkpoint: " + what);
}

template <typename T>
T read_value(std::istream& is, const char* what) {
    T value;
    if (!(is >> value)) fail(std::string("failed reading ") + what);
    return value;
}

void expect_token(std::istream& is, const std::string& expected) {
    std::string token;
    if (!(is >> token) || token != expected)
        fail("expected token '" + expected + "', got '" + token + "'");
}

/// Reads a v2 inline solution whose arities must equal the problem's
/// (\p nvars, \p nobjs, \p ncons): the file's counts are checked before
/// they size anything. \p section names the record in the error.
Solution read_solution(std::istream& is, std::size_t nvars, std::size_t nobjs,
                       std::size_t ncons, const char* section) {
    expect_token(is, "solution");
    if (read_value<std::size_t>(is, "variable count") != nvars ||
        read_value<std::size_t>(is, "objective count") != nobjs ||
        read_value<std::size_t>(is, "constraint count") != ncons)
        fail(std::string(section) +
             " solution arity mismatch (different problem?)");
    Solution s;
    s.operator_index = read_value<int>(is, "operator index");
    s.evaluated = read_value<int>(is, "evaluated flag") != 0;
    s.variables.resize(nvars);
    s.objectives.resize(nobjs);
    s.constraints.resize(ncons);
    for (double& v : s.variables) v = read_value<double>(is, "variable");
    for (double& v : s.objectives) v = read_value<double>(is, "objective");
    for (double& v : s.constraints) v = read_value<double>(is, "constraint");
    return s;
}

Solution read_pool_row(std::istream& is, std::size_t nvars, std::size_t nobjs,
                       std::size_t ncons) {
    expect_token(is, "row");
    Solution s;
    s.operator_index = read_value<int>(is, "operator index");
    s.evaluated = read_value<int>(is, "evaluated flag") != 0;
    s.variables.resize(nvars);
    s.objectives.resize(nobjs);
    s.constraints.resize(ncons);
    for (double& v : s.variables) v = read_value<double>(is, "pool variable");
    for (double& v : s.objectives)
        v = read_value<double>(is, "pool objective");
    for (double& v : s.constraints)
        v = read_value<double>(is, "pool constraint");
    return s;
}

} // namespace

/// Private-access shim: BorgMoea befriends this struct so the format
/// readers/writers (and their shared section helpers) can reach the
/// algorithm's internals without each being named a friend.
struct CheckpointIo {

/// Everything load_checkpoint parses before committing; both format
/// readers fill this, then one shared commit applies it.
struct ParsedCheckpoint {
    std::uint64_t issued = 0;
    std::uint64_t received = 0;
    std::size_t pending = 0;
    std::vector<std::uint64_t> usage;
    util::Rng::State rng{};
    std::vector<double> probabilities;
    std::size_t countdown = 0;
    std::size_t since = 0;
    std::uint64_t last_progress = 0;
    std::uint64_t restarts = 0;
    std::size_t pop_target = 0;
    std::vector<Solution> members;
    std::uint64_t progress = 0;
    std::uint64_t improvements = 0;
    std::vector<Solution> archived;
};

/// Sections shared by v2 and v3, in on-disk order (v2 is read-only now).
static void write_common(const BorgMoea& algorithm, std::ostream& os) {
    os << "counters " << algorithm.issued_ << ' ' << algorithm.received_
       << ' ' << algorithm.pending_restart_mutants_ << '\n';

    os << "usage " << algorithm.operator_usage_.size();
    for (const auto u : algorithm.operator_usage_) os << ' ' << u;
    os << '\n';

    const util::Rng::State rng = algorithm.rng_.state();
    os << "rng " << rng.words[0] << ' ' << rng.words[1] << ' '
       << rng.words[2] << ' ' << rng.words[3] << ' ';
    write_double(os, rng.spare);
    os << ' ' << (rng.has_spare ? 1 : 0) << '\n';

    const auto& probabilities = algorithm.selector_.probabilities();
    os << "selector " << probabilities.size() << ' '
       << algorithm.selector_.countdown();
    for (const double p : probabilities) {
        os << ' ';
        write_double(os, p);
    }
    os << '\n';

    os << "controller " << algorithm.controller_.evaluations_since_check()
       << ' ' << algorithm.controller_.progress_at_last_check() << ' '
       << algorithm.controller_.restarts() << '\n';
}

static void read_common(BorgMoea& algorithm, std::istream& is,
                        ParsedCheckpoint& out) {
    expect_token(is, "counters");
    out.issued = read_value<std::uint64_t>(is, "issued");
    out.received = read_value<std::uint64_t>(is, "received");
    out.pending = read_value<std::size_t>(is, "pending mutants");

    expect_token(is, "usage");
    const auto usage_count = read_value<std::size_t>(is, "usage count");
    if (usage_count != algorithm.operator_usage_.size())
        fail("operator count mismatch (different ensemble?)");
    out.usage.resize(usage_count);
    for (auto& u : out.usage) u = read_value<std::uint64_t>(is, "usage");

    expect_token(is, "rng");
    for (auto& word : out.rng.words)
        word = read_value<std::uint64_t>(is, "rng word");
    out.rng.spare = read_value<double>(is, "rng spare");
    out.rng.has_spare = read_value<int>(is, "rng spare flag") != 0;

    expect_token(is, "selector");
    const auto prob_count = read_value<std::size_t>(is, "probability count");
    if (prob_count != algorithm.selector_.num_operators())
        fail("selector size mismatch");
    out.countdown = read_value<std::size_t>(is, "countdown");
    out.probabilities.resize(prob_count);
    for (double& p : out.probabilities)
        p = read_value<double>(is, "probability");

    expect_token(is, "controller");
    out.since = read_value<std::size_t>(is, "window position");
    out.last_progress = read_value<std::uint64_t>(is, "progress marker");
    out.restarts = read_value<std::uint64_t>(is, "restart count");
}

/// Reads the archive record's ε vector and refuses one that differs from
/// the loader's: a mismatch would silently re-box (and possibly drop) the
/// saved archive under the loader's grid. The count is checked before it
/// sizes anything. Exact comparison is correct: doubles round-trip
/// exactly through write_double.
static void read_epsilons(const BorgMoea& algorithm, std::istream& is) {
    const std::vector<double>& expected = algorithm.archive_.epsilons();
    if (read_value<std::size_t>(is, "epsilon count") != expected.size())
        fail("archive epsilon mismatch (different BorgParams?)");
    for (const double e : expected)
        if (read_value<double>(is, "epsilon") != e)
            fail("archive epsilon mismatch (different BorgParams?)");
}

/// Applies a fully parsed checkpoint. Both readers have checked every
/// count and arity against the configured problem while parsing.
static void commit(BorgMoea& algorithm, ParsedCheckpoint& parsed) {
    algorithm.issued_ = parsed.issued;
    algorithm.received_ = parsed.received;
    algorithm.pending_restart_mutants_ = parsed.pending;
    algorithm.operator_usage_ = std::move(parsed.usage);
    algorithm.rng_.set_state(parsed.rng);
    algorithm.selector_.restore(std::move(parsed.probabilities),
                                parsed.countdown);
    algorithm.controller_.restore(parsed.since, parsed.last_progress,
                                  parsed.restarts);
    algorithm.population_.restore(parsed.members, parsed.pop_target);
    algorithm.archive_.restore(parsed.archived, parsed.progress,
                               parsed.improvements);
}

static void load_v2(BorgMoea& algorithm, std::istream& is) {
    ParsedCheckpoint parsed;
    read_common(algorithm, is, parsed);

    // Counts come from the file: they bound the read loops below but size
    // nothing, so a corrupted count fails on the missing records.
    const std::size_t nvars = algorithm.problem_.num_variables();
    const std::size_t nobjs = algorithm.problem_.num_objectives();
    const std::size_t ncons = algorithm.problem_.num_constraints();
    expect_token(is, "population");
    parsed.pop_target = read_value<std::size_t>(is, "population target");
    const auto pop_count = read_value<std::size_t>(is, "population size");
    for (std::size_t i = 0; i < pop_count; ++i)
        parsed.members.push_back(
            read_solution(is, nvars, nobjs, ncons, "population"));

    expect_token(is, "archive");
    const auto archive_count = read_value<std::size_t>(is, "archive size");
    parsed.progress = read_value<std::uint64_t>(is, "epsilon progress");
    parsed.improvements = read_value<std::uint64_t>(is, "improvements");
    read_epsilons(algorithm, is);
    for (std::size_t i = 0; i < archive_count; ++i)
        parsed.archived.push_back(
            read_solution(is, nvars, nobjs, ncons, "archive"));

    commit(algorithm, parsed);
}

static void load_v3(BorgMoea& algorithm, std::istream& is) {
    ParsedCheckpoint parsed;
    read_common(algorithm, is, parsed);

    expect_token(is, "pool");
    const auto row_count = read_value<std::size_t>(is, "pool row count");
    const auto nvars = read_value<std::size_t>(is, "pool variable arity");
    const auto nobjs = read_value<std::size_t>(is, "pool objective arity");
    const auto ncons = read_value<std::size_t>(is, "pool constraint arity");
    if (nvars != algorithm.problem_.num_variables() ||
        nobjs != algorithm.problem_.num_objectives() ||
        ncons != algorithm.problem_.num_constraints())
        fail("pool arity mismatch (different problem?)");
    // As in load_v2, counts read from the file size nothing.
    std::vector<Solution> rows;
    for (std::size_t i = 0; i < row_count; ++i)
        rows.push_back(read_pool_row(is, nvars, nobjs, ncons));

    const auto read_row_ref = [&](const char* what) {
        const auto idx = read_value<std::size_t>(is, what);
        if (idx >= rows.size()) fail("pool row reference out of range");
        return idx;
    };

    expect_token(is, "population");
    parsed.pop_target = read_value<std::size_t>(is, "population target");
    const auto pop_count = read_value<std::size_t>(is, "population size");
    for (std::size_t i = 0; i < pop_count; ++i)
        parsed.members.push_back(rows[read_row_ref("population row ref")]);

    expect_token(is, "archive");
    const auto archive_count = read_value<std::size_t>(is, "archive size");
    parsed.progress = read_value<std::uint64_t>(is, "epsilon progress");
    parsed.improvements = read_value<std::uint64_t>(is, "improvements");
    read_epsilons(algorithm, is);
    for (std::size_t i = 0; i < archive_count; ++i)
        parsed.archived.push_back(rows[read_row_ref("archive row ref")]);

    commit(algorithm, parsed);
}

static void save_v3(const BorgMoea& algorithm, std::ostream& os) {
    os << kMagicV3 << '\n';
    write_common(algorithm, os);

    // Payloads go out once, as a dense pool dump: population rows first,
    // then archive rows, referenced by index below. Live rows are
    // re-serialized in section order (not pool slot order) so the bytes
    // are independent of free-list history — save→load→save is identity.
    const std::vector<Solution> members =
        algorithm.population_.materialize_members();
    const std::vector<Solution> archived = algorithm.archive_.solutions();
    os << "pool " << members.size() + archived.size() << ' '
       << algorithm.problem_.num_variables() << ' '
       << algorithm.problem_.num_objectives() << ' '
       << algorithm.problem_.num_constraints() << '\n';
    for (const Solution& s : members) write_pool_row(os, s);
    for (const Solution& s : archived) write_pool_row(os, s);

    os << "population " << algorithm.population_.target_size() << ' '
       << members.size();
    for (std::size_t i = 0; i < members.size(); ++i) os << ' ' << i;
    os << '\n';

    const auto& epsilons = algorithm.archive_.epsilons();
    os << "archive " << archived.size() << ' '
       << algorithm.archive_.epsilon_progress() << ' '
       << algorithm.archive_.improvements() << ' ' << epsilons.size();
    for (const double e : epsilons) {
        os << ' ';
        write_double(os, e);
    }
    for (std::size_t i = 0; i < archived.size(); ++i)
        os << ' ' << members.size() + i;
    os << '\n';
}

}; // struct CheckpointIo

void save_checkpoint(const BorgMoea& algorithm, std::ostream& os) {
    CheckpointIo::save_v3(algorithm, os);
}

void load_checkpoint(BorgMoea& algorithm, std::istream& is) {
    std::string magic;
    if (!(is >> magic)) fail("failed reading magic");
    if (magic == kMagicV3)
        CheckpointIo::load_v3(algorithm, is);
    else if (magic == kMagicV2)
        CheckpointIo::load_v2(algorithm, is);
    else
        fail("expected token '" + std::string(kMagicV3) + "', got '" +
             magic + "'");
}

} // namespace borg::moea

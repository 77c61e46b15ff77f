#include "wdm/io.h"

#include <charconv>
#include <cmath>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>

#include "graph/dijkstra.h"  // kInfiniteCost
#include "util/error.h"

namespace lumen {

namespace {

// Declared sizes are checked against these caps before anything is
// allocated from them, so a corrupt or hostile header ("nodes
// 4000000000") is a parse error, not std::bad_alloc.  Each cap sits far
// above the largest network the repo builds: 4096 nodes (the n sweeps in
// bench/), 1024 wavelengths (bench_restricted, adversarial_test), and
// about 10.5M matrix entries (adversarial_test's n = 10, k = 1024
// network written as `conversion matrix`).
constexpr std::uint32_t kMaxNodes = 1u << 20;
constexpr std::uint32_t kMaxWavelengths = 1u << 16;
/// n·k² cap for `conversion matrix`, which stores one double per entry
/// (512 MiB at the cap).
constexpr std::uint64_t kMaxMatrixEntries = std::uint64_t{1} << 26;

void write_conversion(const WdmNetwork& net, std::ostream& os) {
  const ConversionModel& model = net.conversion();
  const std::uint32_t n = net.num_nodes();
  const std::uint32_t k = net.num_wavelengths();

  if (dynamic_cast<const NoConversion*>(&model) != nullptr) {
    os << "conversion none\n";
    return;
  }
  if (const auto* uniform = dynamic_cast<const UniformConversion*>(&model)) {
    const double c =
        k >= 2 ? uniform->cost(NodeId{0}, Wavelength{0}, Wavelength{1}) : 0.0;
    os << "conversion uniform " << c << "\n";
    return;
  }
  if (const auto* range =
          dynamic_cast<const RangeLimitedConversion*>(&model)) {
    os << "conversion range " << range->radius() << " " << range->base()
       << " " << range->per_step() << "\n";
    return;
  }

  // General case (SparseConversion, MatrixConversion, custom models):
  // materialize behaviour as matrix lines.
  os << "conversion matrix\n";
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t p = 0; p < k; ++p) {
      for (std::uint32_t q = 0; q < k; ++q) {
        if (p == q) continue;
        const double c = model.cost(NodeId{v}, Wavelength{p}, Wavelength{q});
        if (c == kInfiniteCost) continue;
        os << "conv " << v << " " << p << " " << q << " " << c << "\n";
      }
    }
  }
}

/// A count or index field.  `istream >> std::uint32_t` wraps a leading
/// '-' ("-1" reads as 4294967295), so the field is read as one token and
/// parsed by from_chars, which refuses any sign; a bad field sets
/// failbit like any other failed extraction.
struct Unsigned {
  std::uint32_t& value;
};

std::istream& operator>>(std::istream& is, Unsigned field) {
  std::string token;
  if (!(is >> token)) return is;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, field.value);
  if (error != std::errc{} || stop != end) is.setstate(std::ios::failbit);
  return is;
}

[[noreturn]] void parse_fail(std::size_t line_number, const std::string& why) {
  throw Error("parse error at line " + std::to_string(line_number) + ": " +
              why);
}

/// Rejects a declared size above its cap before anything is allocated.
void check_size(std::size_t line_number, const std::string& what,
                std::uint64_t value, std::uint64_t limit) {
  if (value > limit)
    parse_fail(line_number, what + " " + std::to_string(value) +
                                " exceeds the limit of " +
                                std::to_string(limit));
}

}  // namespace

void write_network(const WdmNetwork& net, std::ostream& os) {
  os.precision(17);  // lossless double round-trip
  os << "lumen-wdm 1\n";
  os << "nodes " << net.num_nodes() << "\n";
  os << "wavelengths " << net.num_wavelengths() << "\n";
  write_conversion(net, os);
  for (std::uint32_t ei = 0; ei < net.num_links(); ++ei) {
    const LinkId e{ei};
    const auto list = net.available(e);
    os << "link " << net.tail(e).value() << " " << net.head(e).value() << " "
       << list.size();
    for (const LinkWavelength& lw : list)
      os << "  " << lw.lambda.value() << " " << lw.cost;
    os << "\n";
  }
  os << "end\n";
}

std::string network_to_string(const WdmNetwork& net) {
  std::ostringstream os;
  write_network(net, os);
  return os.str();
}

WdmNetwork read_network(std::istream& is) {
  std::size_t line_number = 0;
  std::string line;

  auto next_line = [&]() -> std::string {
    while (std::getline(is, line)) {
      ++line_number;
      // Strip comments and surrounding whitespace.
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos) continue;
      const auto last = line.find_last_not_of(" \t\r");
      return line.substr(first, last - first + 1);
    }
    parse_fail(line_number, "unexpected end of input");
  };

  // Header.
  {
    std::istringstream ss(next_line());
    std::string magic;
    int version = 0;
    ss >> magic >> version;
    if (magic != "lumen-wdm" || version != 1)
      parse_fail(line_number, "expected 'lumen-wdm 1' header");
  }

  std::uint32_t n = 0, k = 0;
  {
    std::istringstream ss(next_line());
    std::string keyword;
    ss >> keyword >> Unsigned{n};
    if (keyword != "nodes" || ss.fail())
      parse_fail(line_number, "expected 'nodes <n>'");
    check_size(line_number, "nodes", n, kMaxNodes);
  }
  {
    std::istringstream ss(next_line());
    std::string keyword;
    ss >> keyword >> Unsigned{k};
    if (keyword != "wavelengths" || ss.fail() || k == 0)
      parse_fail(line_number, "expected 'wavelengths <k>' with k >= 1");
    check_size(line_number, "wavelengths", k, kMaxWavelengths);
  }

  // Conversion model.
  std::shared_ptr<const ConversionModel> conversion;
  std::shared_ptr<MatrixConversion> matrix;  // kept for `conv` lines
  {
    std::istringstream ss(next_line());
    std::string keyword, kind;
    ss >> keyword >> kind;
    if (keyword != "conversion")
      parse_fail(line_number, "expected 'conversion <kind>'");
    if (kind == "none") {
      conversion = std::make_shared<NoConversion>();
    } else if (kind == "uniform") {
      double c = 0;
      ss >> c;
      if (ss.fail() || c < 0)
        parse_fail(line_number, "expected 'conversion uniform <cost>'");
      conversion = std::make_shared<UniformConversion>(c);
    } else if (kind == "range") {
      std::uint32_t radius = 0;
      double base = 0, per_step = 0;
      ss >> Unsigned{radius} >> base >> per_step;
      if (ss.fail() || base < 0 || per_step < 0)
        parse_fail(line_number,
                   "expected 'conversion range <radius> <base> <per_step>'");
      conversion =
          std::make_shared<RangeLimitedConversion>(radius, base, per_step);
    } else if (kind == "matrix") {
      check_size(line_number, "conversion matrix entries (nodes * k^2)",
                 std::uint64_t{n} * k * k, kMaxMatrixEntries);
      matrix = std::make_shared<MatrixConversion>(n, k);
      conversion = matrix;
    } else {
      parse_fail(line_number, "unknown conversion kind '" + kind + "'");
    }
  }

  WdmNetwork net(n, k, conversion);

  // Body: conv / link lines until end.
  while (true) {
    std::istringstream ss(next_line());
    std::string keyword;
    ss >> keyword;
    if (keyword == "end") break;
    if (keyword == "conv") {
      if (matrix == nullptr)
        parse_fail(line_number, "'conv' line outside matrix conversion");
      std::uint32_t v = 0, p = 0, q = 0;
      double c = 0;
      ss >> Unsigned{v} >> Unsigned{p} >> Unsigned{q} >> c;
      if (ss.fail() || v >= n || p >= k || q >= k || p == q || c < 0)
        parse_fail(line_number, "malformed 'conv v from to cost' line");
      matrix->set(NodeId{v}, Wavelength{p}, Wavelength{q}, c);
      continue;
    }
    if (keyword == "link") {
      std::uint32_t u = 0, v = 0, count = 0;
      ss >> Unsigned{u} >> Unsigned{v} >> Unsigned{count};
      if (ss.fail() || u >= n || v >= n)
        parse_fail(line_number, "malformed 'link tail head count' line");
      const LinkId e = net.add_link(NodeId{u}, NodeId{v});
      for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t lambda = 0;
        double cost = 0;
        ss >> Unsigned{lambda} >> cost;
        if (ss.fail() || lambda >= k || cost < 0 || !std::isfinite(cost))
          parse_fail(line_number, "malformed (λ, cost) pair on link line");
        net.set_wavelength(e, Wavelength{lambda}, cost);
      }
      continue;
    }
    parse_fail(line_number, "unknown keyword '" + keyword + "'");
  }
  return net;
}

WdmNetwork network_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_network(is);
}

}  // namespace lumen

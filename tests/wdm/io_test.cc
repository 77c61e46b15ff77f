#include "wdm/io.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "core/liang_shen.h"
#include "tests/test_util.h"
#include "util/error.h"

namespace lumen {
namespace {

/// Structural + behavioural equality of two networks.
void expect_equivalent(const WdmNetwork& a, const WdmNetwork& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_links(), b.num_links());
  ASSERT_EQ(a.num_wavelengths(), b.num_wavelengths());
  for (std::uint32_t ei = 0; ei < a.num_links(); ++ei) {
    const LinkId e{ei};
    EXPECT_EQ(a.tail(e), b.tail(e));
    EXPECT_EQ(a.head(e), b.head(e));
    const auto la = a.available(e);
    const auto lb = b.available(e);
    ASSERT_EQ(la.size(), lb.size());
    for (std::size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i].lambda, lb[i].lambda);
      EXPECT_DOUBLE_EQ(la[i].cost, lb[i].cost);
    }
  }
  for (std::uint32_t v = 0; v < a.num_nodes(); ++v)
    for (std::uint32_t p = 0; p < a.num_wavelengths(); ++p)
      for (std::uint32_t q = 0; q < a.num_wavelengths(); ++q)
        EXPECT_EQ(
            a.conversion_cost(NodeId{v}, Wavelength{p}, Wavelength{q}),
            b.conversion_cost(NodeId{v}, Wavelength{p}, Wavelength{q}));
}

TEST(IoTest, RoundTripNoConversion) {
  WdmNetwork net(3, 2, std::make_shared<NoConversion>());
  const LinkId e = net.add_link(NodeId{0}, NodeId{1});
  net.set_wavelength(e, Wavelength{1}, 2.5);
  const auto text = network_to_string(net);
  EXPECT_NE(text.find("conversion none"), std::string::npos);
  expect_equivalent(net, network_from_string(text));
}

TEST(IoTest, RoundTripUniform) {
  WdmNetwork net(4, 3, std::make_shared<UniformConversion>(0.75));
  const LinkId e = net.add_link(NodeId{2}, NodeId{3});
  net.set_wavelength(e, Wavelength{0}, 1.0);
  net.set_wavelength(e, Wavelength{2}, 1.25);
  const auto text = network_to_string(net);
  EXPECT_NE(text.find("conversion uniform 0.75"), std::string::npos);
  expect_equivalent(net, network_from_string(text));
}

TEST(IoTest, RoundTripRange) {
  WdmNetwork net(3, 6, std::make_shared<RangeLimitedConversion>(2, 0.5, 0.1));
  const LinkId e = net.add_link(NodeId{0}, NodeId{2});
  for (std::uint32_t l = 0; l < 6; ++l)
    net.set_wavelength(e, Wavelength{l}, 1.0 + l);
  const auto text = network_to_string(net);
  EXPECT_NE(text.find("conversion range 2 0.5 0.1"), std::string::npos);
  expect_equivalent(net, network_from_string(text));
}

TEST(IoTest, RoundTripMatrixAndSparse) {
  // Sparse and matrix models serialize behaviour-exactly as matrix lines.
  const auto net = testing::paper_example_network(1.5, 0.25);
  const auto text = network_to_string(net);
  EXPECT_NE(text.find("conversion matrix"), std::string::npos);
  const auto parsed = network_from_string(text);
  expect_equivalent(net, parsed);

  // Behavioural check: routing outcomes identical.
  for (std::uint32_t t = 1; t < 7; ++t) {
    const auto a = route_semilightpath(net, NodeId{0}, NodeId{t});
    const auto b = route_semilightpath(parsed, NodeId{0}, NodeId{t});
    ASSERT_EQ(a.found, b.found) << t;
    if (a.found) {
      EXPECT_NEAR(a.cost, b.cost, 1e-12) << t;
    }
  }
}

TEST(IoTest, RoundTripRandomNetworks) {
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    Rng rng(seed);
    const auto net = testing::random_network(
        12, 24, 5, 3, testing::ConvKind::kSparse, rng);
    expect_equivalent(net, network_from_string(network_to_string(net)));
  }
}

TEST(IoTest, CommentsAndBlankLinesIgnored) {
  const std::string text = R"(# a comment
lumen-wdm 1

nodes 2   # inline comment
wavelengths 2
conversion none
link 0 1 1  0 1.5
end
)";
  const auto net = network_from_string(text);
  EXPECT_EQ(net.num_nodes(), 2u);
  EXPECT_DOUBLE_EQ(net.link_cost(LinkId{0}, Wavelength{0}), 1.5);
}

TEST(IoTest, MalformedInputsRejected) {
  const auto expect_bad = [](const std::string& text) {
    EXPECT_THROW((void)network_from_string(text), Error) << text;
  };
  expect_bad("");  // empty
  expect_bad("bogus 1\n");
  expect_bad("lumen-wdm 2\n");  // wrong version
  expect_bad("lumen-wdm 1\nnodes 2\nwavelengths 0\nconversion none\nend\n");
  expect_bad(
      "lumen-wdm 1\nnodes 2\nwavelengths 2\nconversion martian\nend\n");
  expect_bad(
      "lumen-wdm 1\nnodes 2\nwavelengths 2\nconversion none\n"
      "link 0 5 0\nend\n");  // head out of range
  expect_bad(
      "lumen-wdm 1\nnodes 2\nwavelengths 2\nconversion none\n"
      "link 0 1 1  7 1.0\nend\n");  // λ out of range
  expect_bad(
      "lumen-wdm 1\nnodes 2\nwavelengths 2\nconversion none\n"
      "conv 0 0 1 1.0\nend\n");  // conv without matrix
  expect_bad(
      "lumen-wdm 1\nnodes 2\nwavelengths 2\nconversion none\n"
      "link 0 1 0\n");  // missing end
}

TEST(IoTest, ErrorsCarryLineNumbers) {
  try {
    (void)network_from_string(
        "lumen-wdm 1\nnodes 2\nwavelengths 2\nconversion none\nwhat 1 2\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
  }
}

TEST(IoTest, NegativeCountsAndIndicesRejectedWithLineNumbers) {
  // `istream >> uint32_t` would read "-1" as 4294967295: every count and
  // index field must refuse a sign, with the offending line named.
  const std::string head = "lumen-wdm 1\nnodes 2\nwavelengths 2\n";
  const std::string none = head + "conversion none\n";
  const std::string matrix = head + "conversion matrix\n";
  const std::pair<std::string, int> cases[] = {
      {"lumen-wdm 1\nnodes -1\nwavelengths 2\nconversion none\nend\n", 2},
      {"lumen-wdm 1\nnodes 2\nwavelengths -1\nconversion none\nend\n", 3},
      {head + "conversion range -1 0.5 0.1\nend\n", 4},
      {none + "link -1 1 0\nend\n", 5},
      {none + "link 0 -1 0\nend\n", 5},
      {none + "link 0 1 -1\nend\n", 5},
      {none + "link 0 1 1  -1 1.0\nend\n", 5},
      {matrix + "conv -1 0 1 0.5\nend\n", 5},
      {matrix + "conv 0 -1 1 0.5\nend\n", 5},
      {matrix + "conv 0 0 -1 0.5\nend\n", 5},
  };
  for (const auto& [text, line] : cases) {
    try {
      (void)network_from_string(text);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line)),
                std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not a lumen::Error (" << e.what() << "):\n" << text;
    }
  }
}

/// Parses `text` expecting a lumen::Error that names `line` and `what`.
void expect_size_rejected(const std::string& text, std::size_t line,
                          const std::string& what) {
  try {
    (void)network_from_string(text);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line " + std::to_string(line)), std::string::npos)
        << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "not a lumen::Error (" << e.what() << "):\n" << text;
  }
}

TEST(IoTest, HugeDeclaredNodeCountRejectedBeforeAllocating) {
  // Fits the 32-bit field, but allocating the nodes would end in
  // std::bad_alloc instead of a parse error.
  expect_size_rejected(
      "lumen-wdm 1\nnodes 4000000000\nwavelengths 2\nconversion none\n"
      "end\n",
      2, "nodes 4000000000");
}

TEST(IoTest, HugeConversionMatrixRejectedBeforeAllocating) {
  // Each size is fine on its own; the n*k^2 matrix (1e11 doubles) is not.
  expect_size_rejected(
      "lumen-wdm 1\nnodes 100000\nwavelengths 1000\nconversion matrix\n"
      "end\n",
      4, "conversion matrix");
}

}  // namespace
}  // namespace lumen

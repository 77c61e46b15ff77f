// Labeled-series export surfaces: Prometheus label-value escaping and
// rendering, labeled children merged under their plain family's TYPE
// block, and the pump snapshot JSON key scheme for labeled series and
// profile entries.
#include <gtest/gtest.h>

#include <string>

#include "obs/export.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/tagset.h"
#include "tests/obs_test_util.h"

namespace lumen::obs {
namespace {

TEST(LabeledExportTest, PrometheusLabelValueEscapes) {
  EXPECT_EQ(prometheus_label_value("plain"), "plain");
  EXPECT_EQ(prometheus_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(prometheus_label_value("line\nbreak"), "line\\nbreak");
}

TEST(LabeledExportTest, PrometheusLabelsRendersCanonicalText) {
  EXPECT_EQ(prometheus_labels("tenant=3,shard=1"),
            "{tenant=\"3\",shard=\"1\"}");
  // Canonical escapes unwrap, then Prometheus escaping applies; label
  // *keys* are name-mangled like metric names.
  EXPECT_EQ(prometheus_labels("policy=a\\,b\\=c\\\\d"),
            "{policy=\"a,b=c\\\\d\"}");
  EXPECT_EQ(prometheus_labels("stage.kind=x"), "{stage_kind=\"x\"}");
  // An empty label set renders as nothing, not "{}".
  EXPECT_EQ(prometheus_labels(""), "");
}

TEST(LabeledExportTest, LabeledChildrenShareThePlainTypeBlock) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  registry.counter("lumen.test.admitted").add(10);
  auto& family = registry.labeled_counter("lumen.test.admitted");
  family.at(TagSet{}.tenant(3)).add(7);
  family.at(TagSet{}.tenant(4)).add(2);

  const std::string text = prometheus_text(registry);
  // One TYPE line, plain sample first, then the labeled children.
  EXPECT_NE(text.find("# TYPE lumen_test_admitted counter\n"
                      "lumen_test_admitted 10\n"
                      "lumen_test_admitted{tenant=\"3\"} 7\n"
                      "lumen_test_admitted{tenant=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE lumen_test_admitted counter",
                      text.find("# TYPE lumen_test_admitted counter") + 1),
            std::string::npos);
}

TEST(LabeledExportTest, LabeledOnlyFamilyGetsItsOwnTypeBlock) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  registry.labeled_gauge("lumen.test.share").at(TagSet{}.tenant(1)).set(0.25);
  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("# TYPE lumen_test_share gauge\n"
                      "lumen_test_share{tenant=\"1\"} 0.25\n"),
            std::string::npos);
}

TEST(LabeledExportTest, OverflowChildIsTheUnlabeledSeries) {
  LUMEN_REQUIRE_OBS();
  // Increments under an empty TagSet (or past the cardinality cap) land
  // in the family's overflow child; exporters must carry them, or the
  // exported series sum to less than the family's total.
  Registry registry;
  auto& family = registry.labeled_counter("lumen.test.leaky");
  family.at(TagSet{}).add(5);
  family.at(TagSet{}.tenant(1)).add(2);
  registry.labeled_histogram("lumen.test.leaky_ns").at(TagSet{}).record(4);

  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("# TYPE lumen_test_leaky counter\n"
                      "lumen_test_leaky 5\n"
                      "lumen_test_leaky{tenant=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("lumen_test_leaky_ns_count 1\n"), std::string::npos);

  MetricsPump pump(registry);
  const PumpSnapshot snapshot = pump.tick();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].labels, "");
  EXPECT_EQ(snapshot.counters[0].value, 5u);
  EXPECT_EQ(snapshot.counters[1].labels, "tenant=1");
  EXPECT_EQ(snapshot.counters[1].value, 2u);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].data.count(), 1u);
}

TEST(LabeledExportTest, OverflowBesideAPlainNamesakeIsOneUnlabeledSample) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  registry.counter("lumen.test.both").add(10);
  auto& family = registry.labeled_counter("lumen.test.both");
  family.at(TagSet{}).add(5);
  family.at(TagSet{}.tenant(3)).add(7);

  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("# TYPE lumen_test_both counter\n"
                      "lumen_test_both 15\n"
                      "lumen_test_both{tenant=\"3\"} 7\n"),
            std::string::npos);
  EXPECT_EQ(text.find("lumen_test_both 5\n"), std::string::npos);
}

TEST(LabeledExportTest, LabeledHistogramBucketsMergeLeWithLabels) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  auto& family = registry.labeled_histogram("lumen.test.latency_ns");
  LatencyHistogram& child = family.at(TagSet{}.tenant(3));
  child.record(1);
  child.record(3);

  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("# TYPE lumen_test_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("lumen_test_latency_ns_bucket{tenant=\"3\",le=\"1\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find("lumen_test_latency_ns_bucket{tenant=\"3\",le=\"+Inf\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find("lumen_test_latency_ns_count{tenant=\"3\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("lumen_test_latency_ns_sum{tenant=\"3\"} 4"),
            std::string::npos);
}

TEST(LabeledExportTest, PumpSnapshotJsonUsesBraceKeys) {
  PumpSnapshot snapshot;
  snapshot.tick = 1;
  snapshot.counters = {{"lumen.svc.admitted", "tenant=3", 17, 4}};
  snapshot.gauges = {{"lumen.svc.share", "tenant=3", 0.625}};
  HistogramData data;
  data.buckets[13] = 5;
  data.exemplars[13] = 0xbeef;
  snapshot.histograms = {{"lumen.svc.admit_latency_ns", "tenant=3", data}};
  snapshot.profile = {{"svc.admit;svc.route", 24, 9000, 12000}};

  const std::string json = pump_snapshot_to_json(snapshot);
  EXPECT_NE(json.find("\"c:lumen.svc.admitted{tenant=3}\":17"),
            std::string::npos);
  EXPECT_NE(json.find("\"d:lumen.svc.admitted{tenant=3}\":4"),
            std::string::npos);
  EXPECT_NE(json.find("\"g:lumen.svc.share{tenant=3}\":0.625"),
            std::string::npos);
  EXPECT_NE(json.find("\"h:lumen.svc.admit_latency_ns{tenant=3}:count\":5"),
            std::string::npos);
  EXPECT_NE(
      json.find("\"h:lumen.svc.admit_latency_ns{tenant=3}:exemplar\":48879"),
      std::string::npos);
  EXPECT_NE(json.find("\"p:svc.admit;svc.route:n\":24"), std::string::npos);
  EXPECT_NE(json.find("\"p:svc.admit;svc.route:self\":9000"),
            std::string::npos);
  EXPECT_NE(json.find("\"p:svc.admit;svc.route:total\":12000"),
            std::string::npos);
}

}  // namespace
}  // namespace lumen::obs

// Protocol tests: strict request parsing (unknown members and malformed
// values are loud errors, never defaults), the canonical request hash, and
// the fit-cell/sweep-artifact identity interop.
#include "serve/protocol.hpp"

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "artifact/spec_hash.hpp"
#include "data/datasets.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace {

namespace serve = srm::serve;
using srm::support::Json;

Json parse(const std::string& text) { return Json::parse(text); }

TEST(ServeProtocol, FitDefaultsResolveFromTheProject) {
  const auto request = serve::parse_request(
      parse(R"({"op":"fit","project":"sys1"})"));
  const auto sys1 = srm::data::sys1_grouped();

  EXPECT_EQ(request.op, serve::Op::kFit);
  EXPECT_EQ(request.fit.observation_day, sys1.days());
  EXPECT_EQ(request.fit.eventual_total, sys1.total());
  EXPECT_EQ(request.fit.prior, srm::core::PriorKind::kPoisson);
  EXPECT_EQ(request.fit.model, srm::core::DetectionModelKind::kConstant);
  // Serve defaults to the streaming fit path.
  EXPECT_FALSE(request.fit.gibbs.keep_traces);
}

TEST(ServeProtocol, FitHashIsTheSweepCellHash) {
  // The interop guarantee: a serve fit cell and a sweep artifact cell with
  // the same settings share one identity, so a finished sweep directory
  // warm-starts the service.
  const auto request = serve::parse_request(parse(
      R"({"op":"fit","project":"sys1","day":48,"total":136,)"
      R"("gibbs":{"chains":2,"burn_in":50,"iterations":100,"seed":9}})"));
  const auto expected = srm::artifact::cell_hash(
      request.project, srm::core::to_experiment_spec(request.fit),
      request.fit.observation_day);
  EXPECT_EQ(serve::request_hash(request), expected);
}

TEST(ServeProtocol, HashSeparatesSeedsDaysAndOps) {
  const auto base = serve::parse_request(parse(
      R"({"op":"fit","project":"sys1","day":48,)"
      R"("gibbs":{"chains":2,"burn_in":50,"iterations":100,"seed":1}})"));
  const auto other_seed = serve::parse_request(parse(
      R"({"op":"fit","project":"sys1","day":48,)"
      R"("gibbs":{"chains":2,"burn_in":50,"iterations":100,"seed":2}})"));
  const auto other_day = serve::parse_request(parse(
      R"({"op":"fit","project":"sys1","day":67,)"
      R"("gibbs":{"chains":2,"burn_in":50,"iterations":100,"seed":1}})"));

  EXPECT_NE(serve::request_hash(base), serve::request_hash(other_seed));
  EXPECT_NE(serve::request_hash(base), serve::request_hash(other_day));

  const auto stats = serve::parse_request(parse(R"({"op":"stats"})"));
  EXPECT_EQ(serve::request_hash(stats), "");
}

TEST(ServeProtocol, IdOfAnyJsonTypeIsEchoed) {
  const auto request = serve::parse_request(
      parse(R"({"id":{"k":[1,2]},"op":"stats"})"));
  ASSERT_TRUE(request.id.has_value());

  const auto ok = serve::make_response(request, "", Json::Object{});
  EXPECT_EQ(ok.at("id").dump(), R"({"k":[1,2]})");
  EXPECT_TRUE(ok.at("ok").as_bool());

  const auto error = serve::make_error(request.id, "boom");
  EXPECT_EQ(error.at("id").dump(), R"({"k":[1,2]})");
  EXPECT_FALSE(error.at("ok").as_bool());
  EXPECT_EQ(error.at("error").as_string(), "boom");
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  // Not an object at all.
  EXPECT_THROW(serve::parse_request(parse("[1,2]")), srm::InvalidArgument);
  // Unknown op.
  EXPECT_THROW(serve::parse_request(parse(R"({"op":"frobnicate"})")),
               srm::InvalidArgument);
  // Unknown top-level member (typo'd "gibs").
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"fit","project":"sys1","gibs":{}})")),
               srm::InvalidArgument);
  // Unknown gibbs member (typo'd "iteratons").
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"fit","project":"sys1",)"
                   R"("gibbs":{"iteratons":10}})")),
               srm::InvalidArgument);
  // stats takes no estimation members.
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"stats","project":"sys1"})")),
               srm::InvalidArgument);
  // select fixes the prior/model grid; naming one is an error.
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"select","project":"sys1","prior":"poisson"})")),
               srm::InvalidArgument);
  // Unknown project name.
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"fit","project":"sys99"})")),
               srm::InvalidArgument);
  // day must be >= 1.
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"fit","project":"sys1","day":0})")),
               srm::InvalidArgument);
  // Degenerate sampler settings.
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"fit","project":"sys1",)"
                   R"("gibbs":{"chains":0}})")),
               srm::InvalidArgument);
}

TEST(ServeProtocol, PredictRequiresAStrictPrefix) {
  const auto days = srm::data::sys1_grouped().days();
  EXPECT_NO_THROW(serve::parse_request(parse(
      R"({"op":"predict","project":"sys1","fit_days":48})")));
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"predict","project":"sys1","fit_days":0})")),
               srm::InvalidArgument);
  EXPECT_THROW(
      serve::parse_request(parse(
          R"({"op":"predict","project":"sys1","fit_days":)" +
          std::to_string(days) + "}")),
      srm::InvalidArgument);
}

TEST(ServeProtocol, ReleaseValidatesCosts) {
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"release","project":"sys1","day_cost":0})")),
               srm::InvalidArgument);
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"release","project":"sys1","bug_cost":-1})")),
               srm::InvalidArgument);
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"release","project":"sys1","horizon":0})")),
               srm::InvalidArgument);
}

TEST(ServeProtocol, InlineProjectsAreFirstClass) {
  const auto request = serve::parse_request(parse(
      R"({"op":"fit","project":{"name":"toy","counts":[3,2,1]},"day":2})"));
  EXPECT_EQ(request.project.name(), "toy");
  EXPECT_EQ(request.project.days(), 3u);
  EXPECT_EQ(request.fit.observation_day, 2u);
  EXPECT_EQ(request.fit.eventual_total, 6);
}

/// The message a request's InvalidArgument carries ("" if none is thrown).
std::string request_error(const std::string& text) {
  try {
    (void)serve::parse_request(parse(text));
  } catch (const srm::InvalidArgument& e) {
    return e.what();
  }
  return "";
}

constexpr const char* kOverBudget =
    "gibbs.chains x (gibbs.burn_in + gibbs.iterations x gibbs.thin) must be "
    "<= 1000000 Gibbs scans";

TEST(ServeProtocol, UserErrorsCarryPlainMessages) {
  // Bad request values are user input: the error line quotes the plain
  // message, never a contract-violation report with a source location.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"op":"fit","project":"sys1","gibbs":{"chains":0}})",
       "gibbs.chains must be >= 1"},
      {R"({"op":"fit","project":"sys1","gibbs":{"iterations":0}})",
       "gibbs.iterations must be >= 1"},
      {R"({"op":"fit","project":"sys1","gibbs":{"thin":0}})",
       "gibbs.thin must be >= 1"},
      {R"({"op":"fit","project":"sys1","day":0})", "day must be >= 1"},
      {R"({"op":"predict","project":"sys1","fit_days":0})",
       "fit_days must name a strict prefix of the project's series"},
      {R"({"op":"release","project":"sys1","horizon":0})",
       "horizon must be >= 1"},
      {R"({"op":"release","project":"sys1","day_cost":0})",
       "day_cost must be > 0"},
      {R"({"op":"release","project":"sys1","bug_cost":-1})",
       "bug_cost must be >= 0"},
      {R"({"op":"select","project":"sys1","gibbs":{"chains":0}})",
       "gibbs.chains must be >= 1"},
      {R"({"op":"predict","project":"sys1","fit_days":40,"gibbs":{"thin":0}})",
       "gibbs.thin must be >= 1"},
      {R"({"op":"fit","project":"sys1","config":{"lambda_max":-1}})",
       "config.lambda_max must be > 0"},
      {R"({"op":"fit","project":"sys1","config":{"theta_max":0}})",
       "config.theta_max must be > 0"},
      {R"({"op":"fit","project":"sys1","prior":"negbin",)"
       R"("config":{"alpha_max":0}})",
       "config.alpha_max must be > 0"},
      {R"({"op":"select","project":"sys1","config":{"lambda_max":0}})",
       "config.lambda_max must be > 0"},
      {R"({"op":"fit","project":"sys1","gibbs":{"iterations":4000000000}})",
       kOverBudget},
      {R"({"op":"fit","project":"sys1","gibbs":{"chains":100000}})",
       kOverBudget},
      {R"({"op":"select","project":"sys1","gibbs":{"burn_in":1000001}})",
       kOverBudget},
      // 2^32 x 2^32 wraps a 64-bit product to 0.
      {R"({"op":"predict","project":"sys1","fit_days":40,)"
       R"("gibbs":{"iterations":4294967296,"thin":4294967296}})",
       kOverBudget},
      // Oversized days, horizons and counts (each once answered
      // "std::bad_alloc" or leaked an SRM_EXPECTS report), with the
      // one-over boundary of each limit.
      {R"({"op":"fit","project":"sys1","day":100000000000})",
       "day must be <= 10000"},
      {R"({"op":"select","project":"sys1","day":100000000000})",
       "day must be <= 10000"},
      {R"({"op":"release","project":"sys1","day":100000000000})",
       "day must be <= 10000"},
      {R"({"op":"fit","project":"sys1","day":10001})",
       "day must be <= 10000"},
      {R"({"op":"fit","project":"sys1","day":-1})",
       "JSON integer is negative where a count was expected"},
      {R"({"op":"fit"})", "JSON object has no member 'project'"},
      {R"({"op":"fit","project":{"counts":[1]}})",
       "JSON object has no member 'name'"},
      {R"({"op":"release","project":"sys1","horizon":100000000000})",
       "horizon must be <= 10000"},
      {R"({"op":"release","project":"sys1","horizon":10001})",
       "horizon must be <= 10000"},
      {R"({"op":"predict","project":"sys1","fit_days":100000000000})",
       "fit_days must name a strict prefix of the project's series"},
      {R"({"op":"fit","project":{"name":"x",)"
       R"("counts":[9223372036854775807,5]}})",
       "project counts must total <= 1000000000 bugs"},
      {R"({"op":"fit","project":{"name":"x","counts":[1000000000,1]}})",
       "project counts must total <= 1000000000 bugs"},
  };
  for (const auto& [request, message] : cases) {
    EXPECT_EQ(request_error(request), message) << request;
  }
}

TEST(ServeProtocol, LimitsAdmitTheirExactBoundary) {
  EXPECT_EQ(request_error(R"({"op":"fit","project":"sys1","day":10000})"), "");
  EXPECT_EQ(
      request_error(R"({"op":"release","project":"sys1","horizon":10000})"),
      "");
  EXPECT_EQ(request_error(R"({"op":"fit","project":{"name":"x",)"
                          R"("counts":[999999999,1]}})"),
            "");
  // A 10000-day inline series is accepted; one day more is not.
  const auto series = [](std::size_t days) {
    std::string counts = "1";
    for (std::size_t day = 2; day <= days; ++day) counts += ",0";
    return R"({"op":"fit","project":{"name":"x","counts":[)" + counts +
           "]}}";
  };
  EXPECT_EQ(request_error(series(10000)), "");
  EXPECT_EQ(request_error(series(10001)),
            "project counts must span <= 10000 days");
}

TEST(ServeProtocol, InlineProjectCountsAreCheckedBeforeTheData) {
  EXPECT_EQ(request_error(
                R"({"op":"fit","project":{"name":"x","counts":[1,-2]}})"),
            "project counts must be >= 0");
  EXPECT_EQ(
      request_error(R"({"op":"fit","project":{"name":"x","counts":[]}})"),
      "project counts must not be empty");
}

}  // namespace

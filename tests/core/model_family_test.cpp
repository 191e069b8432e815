// The model-family registry contract: the shipped table's invariants,
// completeness of the process registry, the reproduction-grid membership,
// name round-trips, per-family model/settings/fork validation, and the
// single make_model construction path for every registered cell.
#include "core/model_family.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bayes_srm.hpp"
#include "data/datasets.hpp"
#include "support/error.hpp"

namespace {

namespace core = srm::core;
using core::DetectionModelKind;
using core::PriorKind;

TEST(ModelFamilyRegistry, ShippedTableInvariants) {
  // The table is constant, so what registration used to check at run time
  // is checked here once: unique ids and kinds, non-empty ids and titles,
  // and every selection grid inside its accepted superset.
  std::set<std::string> ids;
  std::set<PriorKind> kinds;
  for (const auto& family : core::model_families().families()) {
    EXPECT_FALSE(family.id.empty());
    EXPECT_FALSE(family.table_title.empty()) << family.id;
    EXPECT_FALSE(family.display_name.empty()) << family.id;
    EXPECT_TRUE(ids.insert(family.id).second) << family.id;
    EXPECT_TRUE(kinds.insert(family.kind).second) << family.id;
    EXPECT_FALSE(family.selection_models.empty()) << family.id;
    for (const auto model : family.selection_models) {
      EXPECT_NE(std::find(family.accepted_models.begin(),
                          family.accepted_models.end(), model),
                family.accepted_models.end())
          << family.id << " selects " << core::to_string(model);
    }
  }
}

TEST(ModelFamilyRegistry, UnregisteredKindAndUnknownIdAreHandled) {
  EXPECT_THROW(static_cast<void>(core::family(static_cast<PriorKind>(99))),
               srm::InvalidArgument);
  EXPECT_EQ(core::find_family("absent"), nullptr);
  ASSERT_NE(core::find_family("poisson"), nullptr);
  EXPECT_EQ(core::find_family("poisson")->kind, PriorKind::kPoisson);
}

TEST(ModelFamilyRegistry, ProcessRegistryCoversEveryKind) {
  // Every PriorKind enumerator has a record whose default model it accepts.
  const std::vector<PriorKind> kinds = {PriorKind::kPoisson,
                                        PriorKind::kNegativeBinomial,
                                        PriorKind::kSizeBiased};
  for (const auto kind : kinds) {
    const auto& family = core::family(kind);
    EXPECT_EQ(family.kind, kind);
    EXPECT_NE(std::find(family.accepted_models.begin(),
                        family.accepted_models.end(), family.default_model),
              family.accepted_models.end())
        << family.id;
    EXPECT_EQ(core::find_family(family.id), &family);
  }
  EXPECT_EQ(core::model_families().families().size(), kinds.size());
}

TEST(ModelFamilyRegistry, ReproductionGridIsPoissonThenNegbin) {
  const auto kinds = core::reproduction_family_kinds();
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], PriorKind::kPoisson);
  EXPECT_EQ(kinds[1], PriorKind::kNegativeBinomial);
  EXPECT_FALSE(core::family(PriorKind::kSizeBiased).reproduction);
}

TEST(ModelFamilyRegistry, StableIdsRoundTripThroughStrings) {
  for (const auto& family : core::model_families().families()) {
    EXPECT_EQ(core::to_string(family.kind), family.id);
    const auto parsed = core::prior_kind_from_string(family.id);
    ASSERT_TRUE(parsed.has_value()) << family.id;
    EXPECT_EQ(*parsed, family.kind);
  }
  EXPECT_FALSE(core::prior_kind_from_string("bogus").has_value());
  // The joined list names every family — this is the error/help surface.
  const auto joined = core::family_ids_joined();
  for (const auto& family : core::model_families().families()) {
    EXPECT_NE(joined.find(family.id), std::string::npos) << joined;
  }
}

TEST(ModelFamilyRegistry, ValidateFamilyModelRejectsForeignDetectionKinds) {
  // The size-biased family only accepts its multinomial detection model,
  // and the reproduction families do not accept it.
  EXPECT_NO_THROW(core::validate_family_model(
      PriorKind::kSizeBiased, DetectionModelKind::kSizeBiasedMultinomial));
  EXPECT_THROW(core::validate_family_model(PriorKind::kSizeBiased,
                                           DetectionModelKind::kConstant),
               srm::InvalidArgument);
  EXPECT_THROW(
      core::validate_family_model(PriorKind::kPoisson,
                                  DetectionModelKind::kSizeBiasedMultinomial),
      srm::InvalidArgument);
}

TEST(ModelFamilyRegistry, ValidateFamilyGibbsRejectsUnrunnableSettings) {
  // Plain messages (no contract report), for every family.
  const auto message = [](PriorKind prior, const core::HyperPriorConfig& config,
                          const srm::mcmc::GibbsOptions& gibbs) {
    try {
      core::validate_family_gibbs(prior, config, gibbs);
    } catch (const srm::InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const core::HyperPriorConfig config;
  const srm::mcmc::GibbsOptions gibbs;
  for (const auto& family : core::model_families().families()) {
    auto bad = gibbs;
    bad.chain_count = 0;
    EXPECT_EQ(message(family.kind, config, bad), "gibbs.chains must be >= 1");
    bad = gibbs;
    bad.iterations = 0;
    EXPECT_EQ(message(family.kind, config, bad),
              "gibbs.iterations must be >= 1");
    bad = gibbs;
    bad.thin = 0;
    EXPECT_EQ(message(family.kind, config, bad), "gibbs.thin must be >= 1");
    // 4 x (249999 + 1 x 1) scans is exactly the budget; one more burn-in
    // scan per chain is over it.
    bad = gibbs;
    bad.chain_count = 4;
    bad.burn_in = core::kMaxGibbsScans / 4 - 1;
    bad.iterations = 1;
    EXPECT_EQ(message(family.kind, config, bad), "");
    bad.burn_in += 1;
    EXPECT_EQ(message(family.kind, config, bad),
              "gibbs.chains x (gibbs.burn_in + gibbs.iterations x "
              "gibbs.thin) must be <= 1000000 Gibbs scans");
    auto limits = config;
    limits.lambda_max = -1.0;
    EXPECT_EQ(message(family.kind, limits, gibbs),
              "config.lambda_max must be > 0");
  }
  auto limits = config;
  limits.alpha_max = 0.0;
  EXPECT_EQ(message(PriorKind::kNegativeBinomial, limits, gibbs),
            "config.alpha_max must be > 0");
  limits = config;
  limits.limits.theta_max = 0.0;
  EXPECT_EQ(message(PriorKind::kPoisson, limits, gibbs),
            "config.theta_max must be > 0");
}

TEST(ModelFamilyRegistry, MakeModelConstructsEveryRegisteredCell) {
  const auto data = srm::data::sys1_grouped();
  for (const auto& family : core::model_families().families()) {
    for (const auto model_kind : family.selection_models) {
      const auto model =
          core::make_model(family.kind, model_kind, data, {});
      ASSERT_NE(model, nullptr) << family.id;
      EXPECT_EQ(model->prior(), family.kind) << family.id;
      EXPECT_EQ(model->detection_model().kind(), model_kind) << family.id;
      // Layout invariants every downstream consumer relies on.
      EXPECT_EQ(model->residual_index(), 0u);
      EXPECT_EQ(model->state_size(),
                model->zeta_offset() +
                    model->detection_model().parameter_count());
      EXPECT_EQ(model->parameter_names().size(), model->state_size());
    }
    // A detection kind outside the accepted set never constructs.
    EXPECT_THROW(core::make_model(family.kind,
                                  family.accepted_models.front() ==
                                          DetectionModelKind::kConstant
                                      ? DetectionModelKind::kSizeBiasedMultinomial
                                      : DetectionModelKind::kConstant,
                                  data, {}),
                 srm::InvalidArgument);
  }
}

TEST(ModelFamilyRegistry, ConstructorPreconditionsFollowTheFamily) {
  // One model class serves every family, but each family checks only the
  // limits it reads: sizebiased never reads theta_max, poisson does.
  const auto data = srm::data::sys1_grouped();
  core::HyperPriorConfig config;
  config.limits.theta_max = 0.0;
  EXPECT_NO_THROW(static_cast<void>(
      core::make_model(PriorKind::kSizeBiased,
                       DetectionModelKind::kSizeBiasedMultinomial, data,
                       config)));
  EXPECT_THROW(static_cast<void>(core::make_model(
                   PriorKind::kPoisson, DetectionModelKind::kConstant, data,
                   config)),
               srm::InvalidArgument);
}

TEST(ModelFamilyRegistry, MarkdownTableListsEveryFamily) {
  const auto table = core::render_family_table_markdown();
  for (const auto& family : core::model_families().families()) {
    EXPECT_NE(table.find("`" + family.id + "`"), std::string::npos)
        << family.id;
    EXPECT_NE(table.find(family.display_name), std::string::npos)
        << family.id;
  }
}

}  // namespace

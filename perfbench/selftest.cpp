// Negative tests of the benchmark's own correctness checks: each check is
// fed a right output (it must pass) and deliberately wrong ones (it must
// fail). A check that passes a wrong output would let a broken program
// report a measurement.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <variant>

#include "checks.h"
#include "ckpt/checkpoint.h"
#include "fhir/synthetic.h"

namespace {

using namespace hc;

int failures = 0;

void expect(bool pass_expected, const std::string& fault, const char* what) {
  const bool passed = fault.empty();
  const bool ok = passed == pass_expected;
  std::printf("%-4s %s%s%s\n", ok ? "ok" : "FAIL", what, fault.empty() ? "" : " -> ",
              fault.c_str());
  if (!ok) ++failures;
}

/// The Safe-Harbor form the platform must store for `bundle`, built by hand.
fhir::Bundle deidentified_form(fhir::Bundle bundle, const std::string& pseudonym) {
  for (auto& resource : bundle.resources) {
    std::visit(
        [&](auto& r) {
          using T = std::decay_t<decltype(r)>;
          if constexpr (std::is_same_v<T, fhir::Patient>) {
            fhir::Patient p;
            p.id = pseudonym;
            p.gender = r.gender;
            p.zip = r.zip.substr(0, 3) + "**";
            p.age = r.age > 89 ? 90 : (r.age / 5) * 5;
            r = p;
          } else {
            r.patient_id = pseudonym;
          }
        },
        resource);
  }
  return bundle;
}

fhir::Patient& patient(fhir::Bundle& b) { return std::get<fhir::Patient>(b.resources[0]); }

void deidentification_checks() {
  Rng rng(3);
  fhir::Bundle uploaded = fhir::make_synthetic_bundle(rng, "bundle-7", 7);
  const fhir::Bundle good = deidentified_form(uploaded, "pseu-0123456789abcdef");
  std::string pseudonym;
  expect(true, pb::check_deidentified(fhir::serialize_bundle(good), uploaded, &pseudonym),
         "de-identified record passes");
  expect(pseudonym == "pseu-0123456789abcdef", pseudonym.empty() ? "no pseudonym" : "",
         "pseudonym is reported");

  fhir::Bundle bad = good;
  patient(bad).name = patient(uploaded).name;
  expect(false, pb::check_deidentified(fhir::serialize_bundle(bad), uploaded, nullptr),
         "stored record keeping the patient's name fails");
  bad = good;
  std::get<fhir::Observation>(bad.resources[1]).unit = patient(uploaded).ssn;
  expect(false, pb::check_deidentified(fhir::serialize_bundle(bad), uploaded, nullptr),
         "SSN hidden in another resource fails");
  bad = good;
  patient(bad).id = patient(uploaded).id;
  expect(false, pb::check_deidentified(fhir::serialize_bundle(bad), uploaded, nullptr),
         "un-pseudonymized patient id fails");
  bad = good;
  patient(bad).zip = patient(uploaded).zip;
  expect(false, pb::check_deidentified(fhir::serialize_bundle(bad), uploaded, nullptr),
         "full ZIP code fails");
  bad = good;
  patient(bad).age += 1;
  expect(false, pb::check_deidentified(fhir::serialize_bundle(bad), uploaded, nullptr),
         "age outside its band fails");
  bad = good;
  std::get<fhir::Observation>(bad.resources[1]).value += 0.5;
  expect(false, pb::check_deidentified(fhir::serialize_bundle(bad), uploaded, nullptr),
         "changed lab value fails");
  bad = good;
  std::get<fhir::Observation>(bad.resources[1]).patient_id = "pseu-someone-else";
  expect(false, pb::check_deidentified(fhir::serialize_bundle(bad), uploaded, nullptr),
         "resource on another pseudonym fails");
  expect(false, pb::check_deidentified(to_bytes("{not json"), uploaded, nullptr),
         "unparseable record fails");
}

void verdict_and_route_checks() {
  using pb::Planted;
  expect(true, pb::check_verdict(Planted::kClean, "stored", ""), "clean upload stored passes");
  expect(true, pb::check_verdict(Planted::kMalware, "failed", "malware detected: eicar"),
         "infected upload rejected passes");
  expect(true,
         pb::check_verdict(Planted::kNoConsent, "failed",
                           "patient has not consented to group g"),
         "unconsented upload rejected passes");
  expect(false, pb::check_verdict(Planted::kMalware, "stored", ""),
         "infected upload stored fails");
  expect(false, pb::check_verdict(Planted::kNoConsent, "failed", "malware detected: x"),
         "unconsented upload rejected for the wrong reason fails");
  expect(false, pb::check_verdict(Planted::kClean, "failed", "validation error"),
         "clean upload rejected fails");

  expect(true, pb::check_lifecycle({"received", "anonymized"}), "pipeline lifecycle passes");
  expect(false, pb::check_lifecycle({"received"}), "lifecycle missing an event fails");
  expect(false, pb::check_lifecycle({"received", "anonymized", "exported"}),
         "lifecycle with an extra event fails");

  expect(true, pb::check_export_counts("rows=251 suppressed=5", 256), "export counts pass");
  expect(false, pb::check_export_counts("rows=250 suppressed=5", 256),
         "export losing a record fails");
  expect(false, pb::check_export_counts("rows=x", 256), "malformed export body fails");

  std::vector<privacy::FieldMap> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({{"age", "[30-39]"}, {"zip", "[100-199]"}});
  expect(true, pb::check_k_anonymous(rows, {"age", "zip"}, 5), "k-anonymous export passes");
  rows.resize(14, {{"age", "[40-49]"}, {"zip", "[100-199]"}});
  expect(false, pb::check_k_anonymous(rows, {"age", "zip"}, 5),
         "export with a class of 4 rows at k=5 fails");
}

void study_checks() {
  analytics::WorkloadConfig data;
  data.drugs = 60;
  data.diseases = 40;
  data.latent_rank = 4;
  Rng rng(11);
  auto workload = analytics::make_drug_disease_workload(data, rng);
  analytics::JmfConfig config;
  config.rank = 6;
  config.epochs = 60;
  Rng fit_rng(12);
  auto jmf = analytics::joint_matrix_factorization(
      workload.observed, workload.drug_similarities, workload.disease_similarities, config,
      fit_rng);
  expect(true,
         pb::check_floor("JMF held-out AUC", pb::held_out_auc(jmf.scores, workload),
                         pb::kJmfAucFloor),
         "JMF scores pass the AUC floor");
  analytics::Matrix shuffled = jmf.scores;
  Rng shuffle_rng(13);
  std::vector<std::size_t> order(shuffled.rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle_rng.shuffle(order);
  for (std::size_t r = 0; r < shuffled.rows(); ++r) {
    for (std::size_t c = 0; c < shuffled.cols(); ++c) shuffled(r, c) = jmf.scores(order[r], c);
  }
  expect(false,
         pb::check_floor("JMF held-out AUC", pb::held_out_auc(shuffled, workload),
                         pb::kJmfAucFloor),
         "JMF scores with shuffled rows fail the AUC floor");

  analytics::EmrConfig emr_config;
  emr_config.patients = 600;
  emr_config.drugs = 60;
  Rng emr_rng(14);
  auto emr = analytics::make_emr_dataset(emr_config, emr_rng);
  auto delt = analytics::fit_delt(emr, analytics::DeltConfig{});
  expect(true,
         pb::check_floor("DELT recovery AUC", pb::delt_recovery_auc(delt.drug_effects, emr),
                         pb::kDeltAucFloor),
         "DELT effects pass the recovery floor");
  // A planted drug whose drawn effect does not lower HbA1c is no positive:
  // effects that match the truth still pass.
  analytics::EmrDataset raised = emr;
  std::vector<double> exact = raised.true_effects;
  for (std::size_t d = 0; d < raised.is_planted.size(); ++d) {
    if (!raised.is_planted[d]) continue;
    raised.true_effects[d] = exact[d] = 0.1;
    break;
  }
  expect(true,
         pb::check_floor("DELT recovery AUC", pb::delt_recovery_auc(exact, raised),
                         pb::kDeltAucFloor),
         "true effects pass when a planted effect came out above 0");
  std::vector<double> flipped = delt.drug_effects;
  for (double& e : flipped) e = -e;
  expect(false,
         pb::check_floor("DELT recovery AUC", pb::delt_recovery_auc(flipped, emr),
                         pb::kDeltAucFloor),
         "DELT effects with flipped signs fail the recovery floor");

  analytics::Matrix nudged = jmf.scores;
  nudged(3, 2) = std::nextafter(nudged(3, 2), 2.0);
  expect(true, pb::check_bits("scores", jmf.scores, jmf.scores), "identical bits pass");
  expect(false, pb::check_bits("scores", jmf.scores, nudged), "one-ulp difference fails");

  analytics::JmfResume state;
  state.next_epoch = 20;
  state.u = jmf.factor_u;
  state.v = jmf.factor_v;
  state.drug_source_weights = jmf.drug_source_weights;
  state.disease_source_weights = jmf.disease_source_weights;
  state.objective_history = jmf.objective_history;
  const Bytes key = to_bytes("0123456789abcdef");
  const Bytes file = ckpt::encode_jmf(state, key);
  expect(true, pb::check_jmf_checkpoint(file, key, state), "checkpoint loads back");
  for (std::size_t at : {std::size_t{0}, file.size() / 3, file.size() / 2, file.size() - 1}) {
    Bytes flipped_file = file;
    flipped_file[at] ^= 0x01;
    expect(false, pb::check_jmf_checkpoint(flipped_file, key, state),
           ("checkpoint with byte " + std::to_string(at) + " flipped fails").c_str());
  }
  analytics::JmfResume other = state;
  other.u(0, 0) += 1.0;
  expect(false, pb::check_jmf_checkpoint(file, key, other),
         "checkpoint holding another state fails");
}

}  // namespace

int main() {
  deidentification_checks();
  verdict_and_route_checks();
  study_checks();
  std::printf("%s: %d check(s) misjudged\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}

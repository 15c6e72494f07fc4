#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <variant>

#include "ckpt/checkpoint.h"

namespace pb {

namespace {

using hc::fhir::Bundle;
using hc::fhir::Patient;

bool contains(const std::string& haystack, const std::string& needle) {
  return !needle.empty() && haystack.find(needle) != std::string::npos;
}

const Patient* patient_of(const Bundle& bundle) {
  for (const auto& resource : bundle.resources) {
    if (const auto* p = std::get_if<Patient>(&resource)) return p;
  }
  return nullptr;
}

/// Safe Harbor as the platform documents it: 5-year bands whose lower
/// bound stands for the band, ages over 89 pooled at 90.
int expected_age(int age) { return age > 89 ? 90 : (age / 5) * 5; }

/// Rank-sum AUC with tied scores sharing their average rank.
double rank_auc(std::vector<std::pair<double, bool>> scored) {
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  double positives = 0, negatives = 0, rank_sum = 0;
  for (std::size_t i = 0; i < scored.size();) {
    std::size_t j = i;
    while (j < scored.size() && scored[j].first == scored[i].first) ++j;
    double average_rank = (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
    for (std::size_t t = i; t < j; ++t) {
      if (scored[t].second) {
        positives += 1;
        rank_sum += average_rank;
      } else {
        negatives += 1;
      }
    }
    i = j;
  }
  if (positives == 0 || negatives == 0) return 0.5;
  return (rank_sum - positives * (positives + 1) / 2.0) / (positives * negatives);
}

}  // namespace

std::string check_verdict(Planted planted, const std::string& stage,
                          const std::string& reason) {
  switch (planted) {
    case Planted::kClean:
      if (stage == "stored") return "";
      return "clean upload ended " + stage + " (" + reason + ")";
    case Planted::kMalware:
      if (stage == "failed" && reason.rfind("malware detected", 0) == 0) return "";
      return "infected upload ended " + stage + " (" + reason + ")";
    case Planted::kNoConsent:
      if (stage == "failed" && reason.rfind("patient has not consented", 0) == 0) return "";
      return "unconsented upload ended " + stage + " (" + reason + ")";
  }
  return "unknown planted verdict";
}

std::string check_deidentified(const hc::Bytes& stored, const Bundle& uploaded,
                               std::string* pseudonym) {
  const Patient* original = patient_of(uploaded);
  if (!original) return "uploaded bundle has no patient";
  const std::string text = hc::to_string(stored);
  for (const std::string* id : {&original->id, &original->name, &original->ssn,
                                &original->phone, &original->email, &original->address}) {
    if (contains(text, *id)) return "stored record still contains identifier '" + *id + "'";
  }
  auto parsed = hc::fhir::parse_bundle(stored);
  if (!parsed.is_ok()) return "stored record does not parse: " + parsed.status().message();
  const Bundle& bundle = *parsed;
  if (bundle.id != uploaded.id) return "stored bundle id " + bundle.id + " != " + uploaded.id;
  if (bundle.resources.size() != uploaded.resources.size()) {
    return "stored bundle has " + std::to_string(bundle.resources.size()) +
           " resources, uploaded " + std::to_string(uploaded.resources.size());
  }
  const Patient* stored_patient = patient_of(bundle);
  if (!stored_patient) return "stored bundle has no patient";
  const std::string& pseu = stored_patient->id;
  if (pseu.empty() || pseu == original->id) return "patient id was not pseudonymized";
  if (!stored_patient->name.empty() || !stored_patient->ssn.empty() ||
      !stored_patient->phone.empty() || !stored_patient->email.empty() ||
      !stored_patient->address.empty() || !stored_patient->birth_date.empty()) {
    return "stored patient keeps a direct identifier field";
  }
  if (stored_patient->gender != original->gender) return "gender changed";
  if (stored_patient->zip != original->zip.substr(0, 3) + "**") {
    return "zip " + stored_patient->zip + " is not the 3-digit form of " + original->zip;
  }
  if (stored_patient->age != expected_age(original->age)) {
    return "age " + std::to_string(stored_patient->age) + " is not the band of " +
           std::to_string(original->age);
  }
  for (std::size_t i = 0; i < bundle.resources.size(); ++i) {
    const auto& got = bundle.resources[i];
    const auto& want = uploaded.resources[i];
    if (got.index() != want.index()) return "resource " + std::to_string(i) + " changed type";
    std::string fault;
    std::visit(
        [&](const auto& g) {
          using T = std::decay_t<decltype(g)>;
          if constexpr (!std::is_same_v<T, Patient>) {
            const T& w = std::get<T>(want);
            if (g.id != w.id) fault = "resource id " + g.id + " != " + w.id;
            else if (g.patient_id != pseu) fault = "resource " + g.id + " not on the pseudonym";
            if constexpr (std::is_same_v<T, hc::fhir::Observation>) {
              if (g.code != w.code || std::fabs(g.value - w.value) > 1e-9 ||
                  g.effective_date != w.effective_date) {
                fault = "observation " + g.id + " changed";
              }
            } else if constexpr (std::is_same_v<T, hc::fhir::MedicationRequest>) {
              if (g.drug != w.drug || g.start_date != w.start_date ||
                  g.days_supply != w.days_supply) {
                fault = "medication " + g.id + " changed";
              }
            } else {
              if (g.code != w.code || g.onset_date != w.onset_date) {
                fault = "condition " + g.id + " changed";
              }
            }
          }
        },
        got);
    if (!fault.empty()) return fault;
  }
  if (pseudonym) *pseudonym = pseu;
  return "";
}

std::string check_lifecycle(const std::vector<std::string>& events) {
  if (events.size() == 2 && events[0] == "received" && events[1] == "anonymized") return "";
  std::string got;
  for (const auto& e : events) got += (got.empty() ? "" : ",") + e;
  return "lifecycle is '" + got + "', expected 'received,anonymized'";
}

std::string check_export_counts(const std::string& body, std::size_t expected_records) {
  unsigned long long rows = 0, suppressed = 0;
  if (std::sscanf(body.c_str(), "rows=%llu suppressed=%llu", &rows, &suppressed) != 2) {
    return "export body '" + body + "' is malformed";
  }
  if (rows + suppressed != expected_records) {
    return "export accounts for " + std::to_string(rows + suppressed) + " of " +
           std::to_string(expected_records) + " records";
  }
  return "";
}

std::string check_k_anonymous(const std::vector<hc::privacy::FieldMap>& rows,
                              const std::vector<std::string>& qi_fields, std::size_t k) {
  std::map<std::string, std::size_t> classes;
  for (const auto& row : rows) {
    std::string signature;
    for (const auto& field : qi_fields) {
      auto it = row.find(field);
      signature += (it == row.end() ? std::string("<none>") : it->second) + '\x1f';
    }
    ++classes[signature];
  }
  for (const auto& [signature, size] : classes) {
    if (size < k) {
      return "quasi-identifier class of " + std::to_string(size) + " rows is below k=" +
             std::to_string(k);
    }
  }
  return "";
}

double held_out_auc(const hc::analytics::Matrix& scores,
                    const hc::analytics::DrugDiseaseWorkload& workload) {
  std::vector<std::pair<double, bool>> scored;
  for (const auto& [r, c] : workload.held_out) scored.emplace_back(scores(r, c), true);
  for (std::size_t r = 0; r < workload.truth.rows(); ++r) {
    for (std::size_t c = 0; c < workload.truth.cols(); ++c) {
      if (workload.truth(r, c) == 0.0) scored.emplace_back(scores(r, c), false);
    }
  }
  return rank_auc(std::move(scored));
}

double delt_recovery_auc(const std::vector<double>& effects,
                         const hc::analytics::EmrDataset& dataset) {
  std::vector<std::pair<double, bool>> scored;
  // Labelled by the drawn effect, not by is_planted: a planted effect is
  // drawn around a negative mean and can come out at or above 0.
  for (std::size_t d = 0; d < effects.size() && d < dataset.true_effects.size(); ++d) {
    scored.emplace_back(-effects[d], dataset.true_effects[d] < 0.0);
  }
  return rank_auc(std::move(scored));
}

std::string check_floor(const char* what, double value, double floor) {
  if (value >= floor) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %.4f is below its floor %.4f", what, value, floor);
  return buf;
}

std::string check_bits(const char* what, const hc::analytics::Matrix& a,
                       const hc::analytics::Matrix& b) {
  if (!a.same_shape(b)) return std::string(what) + ": shapes differ";
  if (a.size() != 0 && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    return std::string(what) + ": bits differ";
  }
  return "";
}

std::string check_bits(const char* what, const std::vector<double>& a,
                       const std::vector<double>& b) {
  if (a.size() != b.size()) return std::string(what) + ": lengths differ";
  if (!a.empty() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    return std::string(what) + ": bits differ";
  }
  return "";
}

std::string check_jmf_checkpoint(const hc::Bytes& file, const hc::Bytes& key,
                                 const hc::analytics::JmfResume& expected) {
  auto loaded = hc::ckpt::decode_jmf(file, key);
  if (!loaded.is_ok()) return "checkpoint does not load: " + loaded.status().message();
  if (loaded->next_epoch != expected.next_epoch) return "checkpoint epoch differs";
  for (const std::string& fault :
       {check_bits("checkpoint U", loaded->u, expected.u),
        check_bits("checkpoint V", loaded->v, expected.v),
        check_bits("checkpoint drug weights", loaded->drug_source_weights,
                   expected.drug_source_weights),
        check_bits("checkpoint disease weights", loaded->disease_source_weights,
                   expected.disease_source_weights),
        check_bits("checkpoint history", loaded->objective_history,
                   expected.objective_history)}) {
    if (!fault.empty()) return fault;
  }
  return "";
}

}  // namespace pb

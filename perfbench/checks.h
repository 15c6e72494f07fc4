// Correctness checks of the benchmark, kept apart from the workloads so a
// self-test can feed each one a deliberately wrong output (selftest.cpp).
//
// Every check recomputes what it expects from the benchmark's own inputs
// or from a property the method must have; none calls the platform code
// that produced the output being checked. Each returns an empty string
// when the output is right and a one-line description of the fault
// otherwise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analytics/delt.h"
#include "analytics/jmf.h"
#include "common/bytes.h"
#include "fhir/resources.h"
#include "privacy/schema.h"

namespace pb {

/// What the benchmark planted in one upload, and so the verdict the
/// pipeline must reach for it.
enum class Planted { kClean, kMalware, kNoConsent };

/// `stage` is the tracker's stage name ("stored" / "failed"), `reason` its
/// failure reason.
std::string check_verdict(Planted planted, const std::string& stage,
                          const std::string& reason);

/// The stored bytes must parse, carry none of the uploaded patient's
/// direct identifiers anywhere, and be exactly the Safe-Harbor form of
/// the uploaded bundle: same bundle and resource ids, the same clinical
/// values, quasi-identifiers generalized (5-year age band lower bound or
/// 90, 3-digit ZIP + "**"), and every resource pointing at one pseudonym.
/// On success `pseudonym` receives that pseudonym.
std::string check_deidentified(const hc::Bytes& stored, const hc::fhir::Bundle& uploaded,
                               std::string* pseudonym);

/// The provenance events a stored record must have on the ledger.
std::string check_lifecycle(const std::vector<std::string>& events);

/// The export route's "rows=R suppressed=S" body must account for every
/// record the benchmark put in the group.
std::string check_export_counts(const std::string& body, std::size_t expected_records);

/// Every quasi-identifier class (by exact string signature over
/// `qi_fields`) must hold at least k rows.
std::string check_k_anonymous(const std::vector<hc::privacy::FieldMap>& rows,
                              const std::vector<std::string>& qi_fields, std::size_t k);

/// AUC-ROC of `scores` over every held-out positive against every cell
/// that is negative in the ground truth — computed here by rank sum, not
/// by the analytics module's metric code.
double held_out_auc(const hc::analytics::Matrix& scores,
                    const hc::analytics::DrugDiseaseWorkload& workload);

/// AUC of -beta ranking the drugs whose generated effect lowers HbA1c
/// (true effect below 0) above the rest.
double delt_recovery_auc(const std::vector<double>& effects,
                         const hc::analytics::EmrDataset& dataset);

/// Quality floors of study_fit, against the generators' planted truth.
inline constexpr double kJmfAucFloor = 0.90;
inline constexpr double kDeltAucFloor = 0.95;

std::string check_floor(const char* what, double value, double floor);

/// Bitwise equality of two matrices / vectors.
std::string check_bits(const char* what, const hc::analytics::Matrix& a,
                       const hc::analytics::Matrix& b);
std::string check_bits(const char* what, const std::vector<double>& a,
                       const std::vector<double>& b);

/// A JMF checkpoint must decode under `key` and hold exactly `expected`.
std::string check_jmf_checkpoint(const hc::Bytes& file, const hc::Bytes& key,
                                 const hc::analytics::JmfResume& expected);

}  // namespace pb

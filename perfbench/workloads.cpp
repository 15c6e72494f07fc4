#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "analytics/kernels.h"
#include "blockchain/auditor.h"
#include "blockchain/contracts.h"
#include "checks.h"
#include "ckpt/fit.h"
#include "ckpt/io.h"
#include "crypto/asymmetric.h"
#include "exec/executor.h"
#include "fhir/synthetic.h"
#include "ingestion/malware.h"
#include "platform/enhanced_client.h"
#include "platform/gateway.h"
#include "platform/instance.h"
#include "platform/routes.h"
#include "privacy/deid.h"
#include "provenance/provenance.h"

namespace pb {

namespace {

using namespace hc;

// Two ingest/fit workers plus the driving thread: the load this benchmark
// is allowed to put on a shared host.
constexpr std::size_t kWorkers = 2;

/// Times `fn` as a span named `metric` and records the duration (in the
/// metric's unit, taken from its suffix) as one sample.
template <typename Fn>
void timed(Tracer& tracer, LayerSamples& layer, const char* metric, Fn&& fn) {
  Tracer::Scope scope(tracer, metric);
  fn();
  double us = scope.elapsed_us();
  std::string name = metric;
  layer[name].push_back(name.ends_with("_ms") ? us / 1000.0 : us);
}

std::string stage_of(const storage::IngestionStatus& status) {
  return std::string(storage::ingestion_stage_name(status.stage));
}

std::string group_name(std::size_t g) { return "study-" + std::to_string(g); }

Status grant_consent(blockchain::PermissionedLedger& ledger, const std::string& patient,
                     const std::string& group) {
  auto committed = ledger.submit_and_commit(
      "consent", {{"action", "grant"}, {"patient", patient}, {"group", group}},
      "healthcare-provider");
  return committed.is_ok() ? Status::ok() : committed.status();
}

const fhir::Patient& patient_of(const fhir::Bundle& bundle) {
  return std::get<fhir::Patient>(bundle.resources.front());
}

// ===================================================================
// clinic_ingest: upload -> drain -> stored, de-identified, anchored.
// ===================================================================

class ClinicIngest final : public Workload {
 public:
  // One round: a fixed batch of 32 bundles, 2 carrying the malware test
  // payload and 2 from patients with no consent grant, so both reject
  // paths run in every round and every round has the same make-up.
  static constexpr std::size_t kBatch = 32;
  // The round's drain runs process_all(1), the serial drain on the driving
  // thread. With 2 workers the host steals several times more time from
  // the run and the round's median moves about five times as much between
  // runs (README, "Steadiness").
  static constexpr std::size_t kDrainWorkers = 1;
  static constexpr std::size_t kMalware = 2;
  static constexpr std::size_t kNoConsent = 2;
  static constexpr std::size_t kStoredPerRound = kBatch - kMalware - kNoConsent;
  // The instance is checked in full and replaced every this many rounds,
  // so ledger, lake and anchorer stay within the same size range however
  // many rounds the host manages in a run.
  static constexpr std::uint64_t kRoundsPerInstance = 48;
  // Bundles per round whose stages are replayed in a traced run.
  static constexpr std::size_t kReplaySample = 4;
  static constexpr const char* kGroup = "clinic-study";

  explicit ClinicIngest(const WorkloadContext& context)
      : seed_(context.seed), tracer_(*context.tracer) {}

  void setup() override {
    Rng rng(seed_);
    batch_.clear();
    planted_.assign(kBatch, Planted::kClean);
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch_.push_back(fhir::make_synthetic_bundle(rng, "bundle-" + std::to_string(i),
                                                   1000 + i));
    }
    std::vector<std::size_t> order(kBatch);
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    for (std::size_t i = 0; i < kMalware; ++i) {
      planted_[order[i]] = Planted::kMalware;
      std::get<fhir::Patient>(batch_[order[i]].resources.front()).address =
          to_string(ingestion::test_malware_payload());
    }
    for (std::size_t i = kMalware; i < kMalware + kNoConsent; ++i) {
      planted_[order[i]] = Planted::kNoConsent;
    }
    upload_ids_.assign(kBatch, "");
    stand_up();
  }

  void prepare(std::uint64_t index, std::vector<std::string>& faults) override {
    if (index > 0 && index % kRoundsPerInstance == 0) {
      retire(faults);
      stand_up();
    }
  }

  bool op(std::uint64_t) override {
    // A failed upload leaves its slot empty; the rest of the round still
    // uploads and drains, so nothing carries over into the next round.
    bool ok = true;
    std::fill(upload_ids_.begin(), upload_ids_.end(), std::string());
    {
      Tracer::Scope uploads(tracer_, "platform.upload_batch");
      for (std::size_t i = 0; i < kBatch; ++i) {
        Tracer::Scope upload(tracer_, "platform.upload_bundle");
        auto receipt = client_->upload_bundle(batch_[i], kGroup);
        if (!receipt.is_ok()) {
          ok = false;
          continue;
        }
        upload_ids_[i] = receipt->upload_id;
        if (tracer_.enabled()) upload_us_.push_back(upload.elapsed_us());
      }
    }
    Tracer::Scope drain(tracer_, "ingestion.process_all");
    cloud_->ingestion().process_all(kDrainWorkers);
    drain_us_ = drain.elapsed_us();
    return ok;
  }

  void check_op(std::uint64_t, std::vector<std::string>& faults) override {
    round_first_stored_ = stored_.size();
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (upload_ids_[i].empty()) continue;  // counted as a failed operation
      auto status = cloud_->status_tracker().status(upload_ids_[i]);
      if (!status.is_ok()) {
        faults.push_back("no status for " + upload_ids_[i]);
        continue;
      }
      std::string fault = check_verdict(planted_[i], stage_of(*status),
                                        status->failure_reason);
      if (!fault.empty()) faults.push_back(fault);
      if (status->stage == storage::IngestionStage::kStored) {
        stored_.push_back({status->reference_id, i});
      }
    }
    ++rounds_;
  }

  void replay(std::uint64_t, LayerSamples& layer) override {
    if (!scratch_ledger_) make_scratch();
    Tracer::Scope root(tracer_, "replay");
    for (double us : upload_us_) layer["platform.upload_bundle_us"].push_back(us);
    upload_us_.clear();

    // Each stage's public function on a sample of this round's own
    // bundles; the per-call means feed the drain decomposition below.
    LayerSamples round;
    std::size_t sampled = 0;
    for (std::size_t i = 0; i < kBatch && sampled < kReplaySample; ++i) {
      if (planted_[i] != Planted::kClean) continue;
      ++sampled;
      Bytes plaintext = fhir::serialize_bundle(batch_[i]);
      crypto::Envelope envelope;
      timed(tracer_, round, "crypto.envelope_seal_us",
            [&] { envelope = crypto::envelope_seal(client_pub_, plaintext, rng_); });
      Bytes opened;
      timed(tracer_, round, "crypto.envelope_open_us",
            [&] { opened = crypto::envelope_open(client_priv_, envelope); });
      timed(tracer_, round, "fhir.parse_validate_us", [&] {
        auto parsed = fhir::parse_bundle(opened);
        if (parsed.is_ok()) (void)fhir::validate_bundle(*parsed);
      });
      timed(tracer_, round, "ingestion.malware_scan_us",
            [&] { (void)cloud_->ingestion().scanner().scan(opened); });
      timed(tracer_, round, "privacy.deidentify_us", [&] {
        (void)privacy::deidentify(fhir::patient_fields(patient_of(batch_[i])), schema_,
                                  pseudonymizer_);
      });
      const std::string& ref = round_refs_for(i);
      auto stored = cloud_->lake().get(ref);
      Bytes body = stored.is_ok() ? *stored : plaintext;
      timed(tracer_, round, "storage.lake_put_us",
            [&] { (void)scratch_lake_->put(body, scratch_key_); });
      timed(tracer_, round, "blockchain.commit_us", [&] {
        (void)scratch_ledger_->submit_and_commit(
            "privacy",
            {{"action", "record_degree"}, {"record_ref", ref}, {"score", "1.000"},
             {"k", "1"}},
            "ingestion-service");
      });
    }
    // The round's provenance, re-anchored on a scratch ledger.
    for (std::size_t s = round_first_stored_; s < stored_.size(); ++s) {
      Bytes hash = crypto::sha256(to_bytes(stored_[s].ref));
      scratch_anchorer_->append({stored_[s].ref, hash, "received", 0, 1024});
      scratch_anchorer_->append({stored_[s].ref, hash, "anonymized", 1, 1024});
    }
    timed(tracer_, round, "provenance.flush_ms", [&] { (void)scratch_anchorer_->flush(); });
    for (int rep = 0; rep < 4; ++rep) {
      timed(tracer_, round, "exec.pool_cycle_us", [] {
        exec::ThreadPool pool(kWorkers);
        for (std::size_t w = 0; w < kWorkers; ++w) pool.submit([] {});
        pool.drain();
        pool.shutdown();
      });
    }

    // Drain decomposition, all in wall microseconds per upload: the flush
    // runs on the calling thread; the per-upload stages run on
    // kDrainWorkers workers, so their wall share is their summed cost over
    // kDrainWorkers.
    auto mean = [&](const char* name) {
      const auto& v = round[name];
      return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
    };
    const double stored = kStoredPerRound;
    const double staged_cost =
        kBatch * (mean("crypto.envelope_open_us") + mean("fhir.parse_validate_us") +
                  mean("ingestion.malware_scan_us")) +
        stored * (mean("privacy.deidentify_us") + 2 * mean("storage.lake_put_us")) +
        (stored + kMalware) * mean("blockchain.commit_us");
    const double drain_per_upload = drain_us_ / kBatch;
    const double flush_us = mean("provenance.flush_ms") * 1000.0;
    layer["ingestion.drain_us_per_upload"].push_back(drain_per_upload);
    layer["ingestion.unattributed_us_per_upload"].push_back(
        drain_per_upload - (flush_us + staged_cost / kDrainWorkers) / kBatch);
    for (auto& [name, samples] : round) {
      layer[name].insert(layer[name].end(), samples.begin(), samples.end());
    }
  }

  void finish(std::vector<std::string>& faults) override { retire(faults); }

  void layer_counts(LayerSamples& layer) override {
    layer["blockchain.tx_per_upload"] = {static_cast<double>(tx_) / (rounds_ * kBatch)};
    layer["provenance.anchored_batches_per_round"] = {static_cast<double>(anchored_) /
                                                      rounds_};
    layer["storage.lake_bytes_per_record"] = {static_cast<double>(lake_bytes_) /
                                              (rounds_ * kStoredPerRound)};
  }

 private:
  struct StoredRecord {
    std::string ref;
    std::size_t slot = 0;  // index into batch_
  };

  /// A fresh instance and client, with the batch's consent committed.
  void stand_up() {
    client_.reset();
    cloud_.reset();
    clock_ = make_clock();
    network_ = std::make_unique<net::SimNetwork>(clock_, Rng(seed_ ^ 0x6e6574));
    platform::InstanceConfig config;
    config.hybrid_provenance = true;
    cloud_ = std::make_unique<platform::HealthCloudInstance>(config, clock_, *network_);
    network_->set_link("clinic", config.name, net::LinkProfile::lan());
    platform::EnhancedClientConfig client_config;
    client_config.name = "clinic";
    client_config.seed = seed_ ^ 0xc11e;
    client_ = std::make_unique<platform::EnhancedClient>(client_config, *cloud_,
                                                         "clinic-uploader");
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (planted_[i] == Planted::kNoConsent) continue;
      if (Status s = grant_consent(cloud_->ledger(), patient_of(batch_[i]).id, kGroup);
          !s.is_ok()) {
        throw std::runtime_error("consent grant failed: " + s.to_string());
      }
    }
    tx_before_ = blockchain::AuditorView(cloud_->ledger()).total_transactions();
    anchored_before_ = cloud_->anchorer()->anchored_batches();
    lake_bytes_before_ = cloud_->lake().stored_bytes();
    stored_.clear();
    scratch_anchorer_.reset();
    scratch_ledger_.reset();
  }

  /// Checks everything the current instance stored, and adds its counts.
  void retire(std::vector<std::string>& faults) {
    // Every stored record reads back as the de-identified form of the
    // bundle uploaded for it, and a patient keeps one pseudonym.
    std::vector<std::string> pseudonyms(kBatch);
    for (const auto& record : stored_) {
      auto bytes = cloud_->lake().get(record.ref);
      if (!bytes.is_ok()) {
        faults.push_back("stored record " + record.ref + " does not read back");
        continue;
      }
      std::string pseudonym;
      std::string fault = check_deidentified(*bytes, batch_[record.slot], &pseudonym);
      if (!fault.empty()) {
        faults.push_back(record.ref + ": " + fault);
        continue;
      }
      std::string& known = pseudonyms[record.slot];
      if (known.empty()) known = pseudonym;
      if (known != pseudonym) {
        faults.push_back("patient of slot " + std::to_string(record.slot) +
                         " has two pseudonyms");
      }
    }
    if (Status s = cloud_->ledger().validate_chain(); !s.is_ok()) {
      faults.push_back("validate_chain: " + s.to_string());
    }
    // A spread sample of records proves membership against the chain.
    const std::size_t step = std::max<std::size_t>(1, stored_.size() / 16);
    for (std::size_t s = 0; s < stored_.size(); s += step) {
      auto proof = cloud_->auditor()->prove(stored_[s].ref);
      if (!proof.is_ok()) {
        faults.push_back("no proof for " + stored_[s].ref + ": " +
                         proof.status().to_string());
        continue;
      }
      if (Status v = cloud_->auditor()->verify_onchain(*proof); !v.is_ok()) {
        faults.push_back("proof of " + stored_[s].ref + " fails: " + v.to_string());
      }
    }
    tx_ += blockchain::AuditorView(cloud_->ledger()).total_transactions() - tx_before_;
    anchored_ += cloud_->anchorer()->anchored_batches() - anchored_before_;
    lake_bytes_ += cloud_->lake().stored_bytes() - lake_bytes_before_;
  }

  /// Reference stored for batch slot `slot` in the latest round.
  const std::string& round_refs_for(std::size_t slot) const {
    for (std::size_t s = stored_.size(); s-- > 0;) {
      if (stored_[s].slot == slot) return stored_[s].ref;
    }
    static const std::string none;
    return none;
  }

  void make_scratch() {
    client_pub_ = *cloud_->kms().public_key(client_->client_key());
    client_priv_ = *cloud_->kms().private_key(client_->client_key(), "platform");
    scratch_lake_.reset();  // it refers to the KMS replaced next
    scratch_kms_ = std::make_unique<crypto::KeyManagementService>("scratch", Rng(seed_ + 3));
    scratch_key_ = scratch_kms_->create_symmetric_key("replay");
    scratch_lake_ = std::make_unique<storage::DataLake>(*scratch_kms_, "replay",
                                                        Rng(seed_ + 4));
    blockchain::LedgerConfig config;
    for (int p = 0; p < 4; ++p) config.peers.push_back("replay/peer-" + std::to_string(p));
    scratch_ledger_ = std::make_unique<blockchain::PermissionedLedger>(config, clock_);
    (void)blockchain::register_hcls_contracts(*scratch_ledger_);
    (void)provenance::BatchAnchorer::register_contract(*scratch_ledger_);
    scratch_anchorer_ =
        std::make_unique<provenance::BatchAnchorer>(*scratch_ledger_, clock_);
  }

  std::uint64_t seed_;
  Tracer& tracer_;
  ClockPtr clock_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<platform::HealthCloudInstance> cloud_;
  std::unique_ptr<platform::EnhancedClient> client_;
  std::vector<fhir::Bundle> batch_;
  std::vector<Planted> planted_;
  std::vector<std::string> upload_ids_;
  std::vector<StoredRecord> stored_;
  std::size_t round_first_stored_ = 0;  // this round's first entry in stored_
  std::uint64_t rounds_ = 0;
  // Counts over retired instances, and the current one's starting points.
  std::uint64_t tx_ = 0, anchored_ = 0, lake_bytes_ = 0;
  std::size_t tx_before_ = 0;
  std::uint64_t anchored_before_ = 0;
  std::uint64_t lake_bytes_before_ = 0;

  // Traced-run state.
  std::vector<double> upload_us_;
  double drain_us_ = 0.0;
  Rng rng_{0x5ea1};
  crypto::PublicKey client_pub_;
  crypto::PrivateKey client_priv_;
  privacy::FieldSchema schema_ = privacy::FieldSchema::standard_patient();
  privacy::Pseudonymizer pseudonymizer_{to_bytes("replay-pseudonym-key")};
  std::unique_ptr<crypto::KeyManagementService> scratch_kms_;
  crypto::KeyId scratch_key_;
  std::unique_ptr<storage::DataLake> scratch_lake_;
  std::unique_ptr<blockchain::PermissionedLedger> scratch_ledger_;
  std::unique_ptr<provenance::BatchAnchorer> scratch_anchorer_;
};

// ===================================================================
// analyst_reads: sessions of reads and exports over a stored corpus.
// ===================================================================

class AnalystReads final : public Workload {
 public:
  static constexpr std::size_t kGroups = 8;
  static constexpr std::size_t kPerGroup = 256;  // corpus: 2048 records
  static constexpr std::size_t kExportK = 5;
  // Session make-up (identical for every session).
  static constexpr std::size_t kRecordGets = 24;
  static constexpr std::size_t kLifecycles = 4;
  static constexpr std::size_t kClientFetches = 32;
  static constexpr double kZipfS = 1.1;
  // Records whose lake read is replayed per session in a traced run.
  static constexpr std::size_t kReplayGets = 8;

  explicit AnalystReads(const WorkloadContext& context)
      : seed_(context.seed), tracer_(*context.tracer) {}

  void setup() override {
    clock_ = make_clock();
    network_ = std::make_unique<net::SimNetwork>(clock_, Rng(seed_ ^ 0x6e6574));
    platform::InstanceConfig config;  // default: per-record provenance on chain
    cloud_ = std::make_unique<platform::HealthCloudInstance>(config, clock_, *network_);
    network_->set_link("clinic", config.name, net::LinkProfile::lan());
    network_->set_link("analyst-laptop", config.name, net::LinkProfile::lan());

    auto& rbac = cloud_->rbac();
    tenant_ = rbac.register_tenant("mercy-health").value();
    analyst_ = rbac.add_user(tenant_.id, "analyst").value();
    (void)rbac.assign_role(analyst_, tenant_.default_env, rbac::Role::kAnalyst);
    for (const char* prefix : {"datalake/", "export/", "audit/"}) {
      (void)rbac.grant_permission(tenant_.id, rbac::Role::kAnalyst, prefix,
                                  rbac::Permission::kRead);
    }
    gateway_ = std::make_unique<platform::ApiGateway>(*cloud_);
    platform::install_standard_routes(*gateway_, *cloud_);

    platform::EnhancedClientConfig uploader_config;
    uploader_config.name = "clinic";
    uploader_config.seed = seed_ ^ 0xc11e;
    platform::EnhancedClient uploader(uploader_config, *cloud_, "clinic-uploader");
    Rng rng(seed_);
    corpus_.clear();
    refs_.clear();
    for (std::size_t g = 0; g < kGroups; ++g) {
      std::vector<std::string> upload_ids;
      for (std::size_t i = 0; i < kPerGroup; ++i) {
        std::size_t index = g * kPerGroup + i;
        corpus_.push_back(fhir::make_synthetic_bundle(
            rng, "bundle-" + std::to_string(index), index));
        const fhir::Bundle& bundle = corpus_.back();
        if (Status s = grant_consent(cloud_->ledger(), patient_of(bundle).id,
                                     group_name(g));
            !s.is_ok()) {
          throw std::runtime_error("consent grant failed: " + s.to_string());
        }
        auto receipt = uploader.upload_bundle(bundle, group_name(g));
        if (!receipt.is_ok()) throw std::runtime_error("corpus upload failed");
        upload_ids.push_back(receipt->upload_id);
      }
      cloud_->ingestion().process_all(kWorkers);
      for (const auto& id : upload_ids) {
        auto status = cloud_->status_tracker().status(id);
        if (!status.is_ok() || status->stage != storage::IngestionStage::kStored) {
          throw std::runtime_error("corpus record was not stored");
        }
        refs_.push_back(status->reference_id);
      }
    }

    platform::EnhancedClientConfig reader_config;
    reader_config.name = "analyst-laptop";
    reader_config.seed = seed_ ^ 0xa11;
    reader_ = std::make_unique<platform::EnhancedClient>(reader_config, *cloud_, analyst_);
    zipf_ = std::make_unique<ZipfSampler>(refs_.size(), kZipfS);
    // Popularity rank r maps to a seeded permutation of the corpus, so the
    // hot records are spread over every group.
    popularity_.resize(refs_.size());
    std::iota(popularity_.begin(), popularity_.end(), 0);
    rng.shuffle(popularity_);
    verified_.assign(refs_.size(), Bytes{});
  }

  void warm() override {
    // The client cache starts warm: the 256 most popular records.
    for (std::size_t r = 0; r < 256 && r < popularity_.size(); ++r) {
      (void)reader_->fetch_record(refs_[popularity_[r]]);
    }
    hits_before_ = reader_->cache_stats().hits;
    misses_before_ = reader_->cache_stats().misses;
  }

  void prepare(std::uint64_t index, std::vector<std::string>&) override {
    Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + index);
    group_ = static_cast<std::size_t>(index % kGroups);
    gets_.clear();
    lifecycles_.clear();
    fetches_.clear();
    const auto n = static_cast<std::int64_t>(refs_.size());
    for (std::size_t i = 0; i < kRecordGets; ++i) {
      gets_.push_back(static_cast<std::size_t>(rng.uniform_int(0, n - 1)));
    }
    for (std::size_t i = 0; i < kLifecycles; ++i) {
      lifecycles_.push_back(static_cast<std::size_t>(rng.uniform_int(0, n - 1)));
    }
    for (std::size_t i = 0; i < kClientFetches; ++i) {
      fetches_.push_back(popularity_[zipf_->sample(rng)]);
    }
  }

  bool op(std::uint64_t) override {
    bool ok = true;
    {
      Tracer::Scope span(tracer_, "platform.gateway_export");
      auto response = get("export/anonymized/" + group_name(group_) + "?k=" +
                          std::to_string(kExportK));
      ok = ok && response.is_ok();
      export_body_ = response.is_ok() ? to_string(response->body) : std::string();
    }
    got_.clear();
    for (std::size_t index : gets_) {
      Tracer::Scope span(tracer_, "platform.gateway_record_get");
      auto response = get("datalake/records/" + refs_[index]);
      ok = ok && response.is_ok();
      if (tracer_.enabled()) gateway_get_us_.push_back(span.elapsed_us());
      got_.push_back(response.is_ok() ? std::move(response->body) : Bytes{});
    }
    lifecycle_bodies_.clear();
    for (std::size_t index : lifecycles_) {
      Tracer::Scope span(tracer_, "platform.gateway_lifecycle");
      auto response = get("audit/lifecycle/" + refs_[index]);
      ok = ok && response.is_ok();
      lifecycle_bodies_.push_back(response.is_ok() ? to_string(response->body)
                                                   : std::string());
    }
    fetched_.clear();
    for (std::size_t index : fetches_) {
      Tracer::Scope span(tracer_, "platform.client_fetch");
      auto outcome = reader_->fetch_record(refs_[index]);
      ok = ok && outcome.is_ok();
      if (tracer_.enabled()) client_fetch_us_.push_back(span.elapsed_us());
      fetched_.push_back(outcome.is_ok() ? std::move(outcome->data) : Bytes{});
    }
    return ok;
  }

  void check_op(std::uint64_t, std::vector<std::string>& faults) override {
    std::string fault = check_export_counts(export_body_, kPerGroup);
    if (!fault.empty()) faults.push_back(group_name(group_) + ": " + fault);
    for (std::size_t i = 0; i < gets_.size(); ++i) check_record(gets_[i], got_[i], faults);
    for (std::size_t i = 0; i < fetches_.size(); ++i) {
      check_record(fetches_[i], fetched_[i], faults);
    }
    for (const std::string& body : lifecycle_bodies_) {
      std::vector<std::string> events;
      for (std::size_t at = 0; at <= body.size();) {
        std::size_t comma = body.find(',', at);
        if (comma == std::string::npos) comma = body.size();
        events.push_back(body.substr(at, comma - at));
        at = comma + 1;
      }
      fault = check_lifecycle(events);
      if (!fault.empty()) faults.push_back(fault);
    }
  }

  void replay(std::uint64_t, LayerSamples& layer) override {
    Tracer::Scope root(tracer_, "replay");
    for (double us : gateway_get_us_) layer["platform.gateway_record_get_us"].push_back(us);
    for (double us : client_fetch_us_) layer["platform.client_fetch_us"].push_back(us);
    gateway_get_us_.clear();
    client_fetch_us_.clear();
    for (std::size_t i = 0; i < kReplayGets && i < gets_.size(); ++i) {
      timed(tracer_, layer, "storage.lake_get_us",
            [&] { (void)cloud_->lake().get(refs_[gets_[i]]); });
    }
    blockchain::AuditorView auditor(cloud_->ledger());
    for (std::size_t index : lifecycles_) {
      timed(tracer_, layer, "blockchain.lifecycle_ms",
            [&] { (void)auditor.record_lifecycle(refs_[index]); });
    }
    timed(tracer_, layer, "ingestion.export_anonymized_ms", [&] {
      (void)cloud_->exporter().export_anonymized(group_name(group_), kExportK);
    });
  }

  void finish(std::vector<std::string>& faults) override {
    for (std::size_t g = 0; g < kGroups; ++g) {
      auto exported = cloud_->exporter().export_anonymized(group_name(g), kExportK);
      if (!exported.is_ok()) {
        faults.push_back("export of " + group_name(g) + " failed");
        continue;
      }
      std::string fault = check_k_anonymous(exported->rows, {"age", "zip"}, kExportK);
      if (!fault.empty()) faults.push_back(group_name(g) + ": " + fault);
      if (exported->rows.size() + exported->suppressed != kPerGroup) {
        faults.push_back(group_name(g) + ": export lost records");
      }
    }
  }

  void layer_counts(LayerSamples& layer) override {
    const auto& stats = reader_->cache_stats();
    const double hits = static_cast<double>(stats.hits - hits_before_);
    const double misses = static_cast<double>(stats.misses - misses_before_);
    layer["cache.hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0.0};
    layer["blockchain.chain_tx_count"] = {static_cast<double>(
        blockchain::AuditorView(cloud_->ledger()).total_transactions())};
    layer["platform.gateway_overhead_us"] = {
        percentile(layer["platform.gateway_record_get_us"], 0.5) -
        percentile(layer["storage.lake_get_us"], 0.5)};
  }

 private:
  Result<platform::ApiResponse> get(const std::string& resource) {
    platform::ApiRequest request;
    request.user_id = analyst_;
    request.environment = tenant_.default_env;
    request.scope = tenant_.id;
    request.resource = resource;
    return gateway_->handle(request);
  }

  /// A read of corpus record `index` must be the de-identified form of the
  /// bundle uploaded for it; checked in full once, then by byte equality.
  void check_record(std::size_t index, const Bytes& body,
                    std::vector<std::string>& faults) {
    Bytes& known = verified_[index];
    if (!known.empty()) {
      if (body != known) faults.push_back(refs_[index] + ": read differs from earlier read");
      return;
    }
    std::string fault = check_deidentified(body, corpus_[index], nullptr);
    if (!fault.empty()) {
      faults.push_back(refs_[index] + ": " + fault);
      return;
    }
    known = body;
  }

  std::uint64_t seed_;
  Tracer& tracer_;
  ClockPtr clock_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<platform::HealthCloudInstance> cloud_;
  std::unique_ptr<platform::ApiGateway> gateway_;
  std::unique_ptr<platform::EnhancedClient> reader_;
  rbac::TenantInfo tenant_;
  std::string analyst_;
  std::vector<fhir::Bundle> corpus_;
  std::vector<std::string> refs_;
  std::vector<Bytes> verified_;
  std::unique_ptr<ZipfSampler> zipf_;
  std::vector<std::size_t> popularity_;
  std::uint64_t hits_before_ = 0;
  std::uint64_t misses_before_ = 0;

  // The current session.
  std::size_t group_ = 0;
  std::vector<std::size_t> gets_, lifecycles_, fetches_;
  std::string export_body_;
  std::vector<Bytes> got_, fetched_;
  std::vector<std::string> lifecycle_bodies_;
  std::vector<double> gateway_get_us_, client_fetch_us_;
};

// ===================================================================
// study_fit: JMF then DELT, checkpointed; timed at 1 worker, and at 2
// workers in a traced run.
// ===================================================================

class StudyFit final : public Workload {
 public:
  static constexpr int kJmfEpochs = 40;
  static constexpr int kDeltIterations = 25;
  static constexpr int kCheckpointEvery = 20;      // JMF epochs
  static constexpr int kDeltCheckpointEvery = 10;  // DELT iterations
  // In a traced run the kWorkers fits run every this many ops.
  static constexpr std::uint64_t kParallelEvery = 4;

  explicit StudyFit(const WorkloadContext& context)
      : seed_(context.seed), scratch_(context.scratch_dir), tracer_(*context.tracer) {}

  void setup() override {
    Rng rng(seed_);
    analytics::WorkloadConfig jmf_data;
    jmf_data.drugs = 120;
    jmf_data.diseases = 80;
    jmf_data.latent_rank = 6;
    workload_ = analytics::make_drug_disease_workload(jmf_data, rng);
    analytics::EmrConfig emr;
    emr.patients = 3000;
    emr.drugs = 100;
    emr_ = analytics::make_emr_dataset(emr, rng);

    jmf_config_ = analytics::JmfConfig{};
    jmf_config_.rank = 8;
    jmf_config_.epochs = kJmfEpochs;
    jmf_config_.workers = kWorkers;
    delt_config_ = analytics::DeltConfig{};
    delt_config_.iterations = kDeltIterations;
    delt_config_.workers = kWorkers;

    std::filesystem::create_directories(scratch_);
    kms_ = std::make_unique<crypto::KeyManagementService>("analytics", Rng(seed_ + 5));
    key_id_ = kms_->create_symmetric_key("analytics");
    data_key_ = *kms_->symmetric_key(key_id_, "analytics");
    clock_ = make_clock();
    ckpt::FitSessionConfig jmf_session;
    jmf_session.dir = scratch_;
    jmf_session.name = "study-jmf";
    jmf_session.checkpoint_every_n_epochs = kCheckpointEvery;
    jmf_session_ = std::make_unique<ckpt::FitSession>(jmf_session, *kms_, key_id_,
                                                      "analytics", clock_);
    ckpt::FitSessionConfig delt_session = jmf_session;
    delt_session.name = "study-delt";
    delt_session.checkpoint_every_n_epochs = kDeltCheckpointEvery;
    delt_session_ = std::make_unique<ckpt::FitSession>(delt_session, *kms_, key_id_,
                                                       "analytics", clock_);
  }

  // The timed study runs both fits at 1 worker: at kWorkers every fit
  // joins hundreds of short parallel regions, and on a shared host each
  // join waits for the slowest vCPU, so run-to-run spread follows the
  // neighbours (README, "Steadiness"). The kWorkers fits are timed in a
  // traced run and checked bit-identical in finish().
  bool op(std::uint64_t) override {
    jmf_ = fit_jmf(1);
    delt_ = fit_delt(1);
    return true;
  }

  void check_op(std::uint64_t, std::vector<std::string>& faults) override {
    if (!reference_) {
      const double jmf_auc = held_out_auc(jmf_.scores, workload_);
      const double delt_auc = delt_recovery_auc(delt_.drug_effects, emr_);
      std::fprintf(stderr, "study_fit: JMF held-out AUC %.4f, DELT recovery AUC %.4f\n",
                   jmf_auc, delt_auc);
      std::string fault = check_floor("JMF held-out AUC", jmf_auc, kJmfAucFloor);
      if (!fault.empty()) faults.push_back(fault);
      fault = check_floor("DELT recovery AUC", delt_auc, kDeltAucFloor);
      if (!fault.empty()) faults.push_back(fault);
      reference_ = true;
      ref_jmf_ = jmf_;
      ref_delt_ = delt_;
      return;
    }
    // Every study fits the same inputs, so it must land on the same bits.
    for (const std::string& fault :
         {check_bits("JMF scores vs first study", jmf_.scores, ref_jmf_.scores),
          check_bits("DELT effects vs first study", delt_.drug_effects,
                     ref_delt_.drug_effects)}) {
      if (!fault.empty()) faults.push_back(fault);
    }
  }

  void replay(std::uint64_t index, LayerSamples& layer) override {
    Tracer::Scope root(tracer_, "replay");
    if (index % kParallelEvery == 0) {
      (void)fit_jmf(kWorkers);
      (void)fit_delt(kWorkers);
    }
    for (auto& [name, samples] : fit_samples_) {
      layer[name].insert(layer[name].end(), samples.begin(), samples.end());
    }
    fit_samples_.clear();
    // The fit's kernels at its own shapes and at kWorkers.
    const analytics::Matrix& u = jmf_.factor_u;
    const analytics::Matrix& v = jmf_.factor_v;
    timed(tracer_, layer, "analytics.kernel_multiply_transposed_us",
          [&] { analytics::kernels::multiply_transposed_into(u, v, k_out_, kWorkers); });
    timed(tracer_, layer, "analytics.kernel_syrk_us",
          [&] { analytics::kernels::syrk_into(u, k_gram_, kWorkers); });
    timed(tracer_, layer, "analytics.kernel_residual_us", [&] {
      analytics::kernels::residual_into(workload_.observed, u, v, k_out_, kWorkers);
    });
    std::vector<double> factors(workload_.drug_similarities.size(), 0.25);
    timed(tracer_, layer, "analytics.kernel_fused_sub_multiply_add_us", [&] {
      k_grad_.resize(u.rows(), u.cols());
      k_grad_.fill(0.0);
      analytics::kernels::fused_sub_multiply_add_into(
          k_grad_, workload_.drug_similarities, k_gram_, u, factors, k_scratch_, kWorkers);
    });
    const std::size_t blocks =
        (u.rows() + analytics::kernels::kRowBlock - 1) / analytics::kernels::kRowBlock;
    for (int rep = 0; rep < 8; ++rep) {
      timed(tracer_, layer, "exec.parallel_for_empty_us",
            [&] { exec::parallel_for(blocks, kWorkers, [](std::size_t) {}); });
    }
    timed(tracer_, layer, "ckpt.load_ms", [&] { (void)jmf_session_->load_jmf(); });
  }

  void finish(std::vector<std::string>& faults) override {
    if (!reference_) return;
    // kWorkers fits are bit-identical to the 1-worker fits.
    analytics::JmfResult jmf2 = fit_jmf(kWorkers);
    analytics::DeltModel delt2 = fit_delt(kWorkers);
    for (const std::string& fault :
         {check_bits("JMF 2 vs 1 workers", jmf2.scores, ref_jmf_.scores),
          check_bits("DELT 2 vs 1 workers", delt2.drug_effects, ref_delt_.drug_effects)}) {
      if (!fault.empty()) faults.push_back(fault);
    }
    // A mid-fit checkpoint loads back bit-identical to the state it was
    // taken from, and a fit resumed from it ends on the same model.
    struct Stop {};
    analytics::JmfResume captured;
    const int stop_epoch = kCheckpointEvery - 1;
    analytics::JmfConfig config = jmf_config_;
    auto session_hook = jmf_session_->jmf_hook();
    config.epoch_hook = [&](const analytics::JmfEpochView& view) {
      session_hook(view);
      if (view.epoch == stop_epoch) {
        captured.next_epoch = view.epoch + 1;
        captured.u = view.u;
        captured.v = view.v;
        captured.drug_source_weights = view.drug_source_weights;
        captured.disease_source_weights = view.disease_source_weights;
        captured.objective_history = view.objective_history;
        throw Stop{};
      }
    };
    Rng rng(seed_ + 17);
    try {
      (void)analytics::joint_matrix_factorization(workload_.observed,
                                                  workload_.drug_similarities,
                                                  workload_.disease_similarities, config, rng);
      faults.push_back("JMF fit did not stop at its checkpoint");
      return;
    } catch (const Stop&) {
    }
    auto file = ckpt::read_file(jmf_session_->path());
    if (!file.is_ok()) {
      faults.push_back("checkpoint unreadable: " + file.status().to_string());
      return;
    }
    std::string fault = check_jmf_checkpoint(*file, data_key_, captured);
    if (!fault.empty()) {
      faults.push_back(fault);
      return;
    }
    auto resume = jmf_session_->load_jmf();
    if (!resume.is_ok()) {
      faults.push_back("checkpoint load: " + resume.status().to_string());
      return;
    }
    analytics::JmfConfig resumed = jmf_config_;
    resumed.resume = &*resume;
    Rng rng2(seed_ + 17);
    analytics::JmfResult final_model = analytics::joint_matrix_factorization(
        workload_.observed, workload_.drug_similarities, workload_.disease_similarities,
        resumed, rng2);
    fault = check_bits("resumed JMF vs uninterrupted", final_model.scores, ref_jmf_.scores);
    if (!fault.empty()) faults.push_back(fault);
  }

  void layer_counts(LayerSamples& layer) override {
    std::error_code ec;
    auto bytes = std::filesystem::file_size(jmf_session_->path(), ec);
    layer["ckpt.file_bytes"] = {ec ? 0.0 : static_cast<double>(bytes)};
  }

 private:
  /// One fit, checkpointed through its session, as a span with its epochs
  /// under it. In a traced run its wall becomes a sample of the 1-worker or
  /// the kWorkers metric; only kWorkers fits sample their epochs.
  analytics::JmfResult fit_jmf(std::size_t workers) {
    const bool parallel = workers > 1;
    analytics::JmfConfig config = jmf_config_;
    config.workers = workers;
    auto hook = jmf_session_->jmf_hook();
    const char* epoch = parallel ? "analytics.jmf_epoch_ms" : "analytics.jmf_epoch_1w";
    config.epoch_hook = [this, hook, epoch](const analytics::JmfEpochView& view) {
      boundary(hook, view, epoch);
    };
    Rng rng(seed_ + 17);
    Tracer::Scope span(tracer_, parallel ? "analytics.jmf_fit" : "analytics.jmf_fit_1w");
    epoch_start_ = now_us();
    analytics::JmfResult result = analytics::joint_matrix_factorization(
        workload_.observed, workload_.drug_similarities, workload_.disease_similarities,
        config, rng);
    if (tracer_.enabled()) {
      fit_samples_[parallel ? "analytics.jmf_fit_ms" : "analytics.jmf_fit_1w_ms"].push_back(
          span.elapsed_us() / 1000.0);
    }
    return result;
  }

  analytics::DeltModel fit_delt(std::size_t workers) {
    const bool parallel = workers > 1;
    analytics::DeltConfig config = delt_config_;
    config.workers = workers;
    auto hook = delt_session_->delt_hook();
    const char* iteration =
        parallel ? "analytics.delt_iteration" : "analytics.delt_iteration_1w";
    config.epoch_hook = [this, hook, iteration](const analytics::DeltEpochView& view) {
      boundary(hook, view, iteration);
    };
    Tracer::Scope span(tracer_, parallel ? "analytics.delt_fit" : "analytics.delt_fit_1w");
    epoch_start_ = now_us();
    analytics::DeltModel model = analytics::fit_delt(emr_, config);
    if (tracer_.enabled()) {
      fit_samples_[parallel ? "analytics.delt_fit_ms" : "analytics.delt_fit_1w_ms"].push_back(
          span.elapsed_us() / 1000.0);
    }
    return model;
  }

  /// One epoch boundary: records the epoch that just ended and the
  /// checkpoint hook's own time as sibling spans under the fit.
  template <typename Hook, typename View>
  void boundary(const Hook& hook, const View& view, const char* epoch_metric) {
    if (!tracer_.enabled()) {
      hook(view);
      return;
    }
    const double t0 = now_us();
    tracer_.record(epoch_metric, epoch_start_, t0);
    if (std::string(epoch_metric).ends_with("_ms")) {
      fit_samples_[epoch_metric].push_back((t0 - epoch_start_) / 1000.0);
    }
    const int written = jmf_session_->checkpoints_written() +
                        delt_session_->checkpoints_written();
    hook(view);
    const double t1 = now_us();
    const bool published = jmf_session_->checkpoints_written() +
                               delt_session_->checkpoints_written() !=
                           written;
    tracer_.record(published ? "ckpt.publish" : "ckpt.hook", t0, t1);
    if (published) fit_samples_["ckpt.publish_ms"].push_back((t1 - t0) / 1000.0);
    epoch_start_ = t1;
  }

  std::uint64_t seed_;
  std::string scratch_;
  Tracer& tracer_;
  analytics::DrugDiseaseWorkload workload_;
  analytics::EmrDataset emr_;
  analytics::JmfConfig jmf_config_;
  analytics::DeltConfig delt_config_;
  std::unique_ptr<crypto::KeyManagementService> kms_;
  crypto::KeyId key_id_;
  Bytes data_key_;
  ClockPtr clock_;
  std::unique_ptr<ckpt::FitSession> jmf_session_, delt_session_;
  analytics::JmfResult jmf_, ref_jmf_;
  analytics::DeltModel delt_, ref_delt_;
  bool reference_ = false;

  // Traced-run state.
  double epoch_start_ = 0.0;
  LayerSamples fit_samples_;
  analytics::Matrix k_out_, k_gram_, k_grad_, k_scratch_;
};

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"clinic_ingest", "analyst_reads",
                                                 "study_fit"};
  return names;
}

const std::vector<MetricSpec>& layer_metrics(const std::string& workload) {
  static const std::vector<MetricSpec> clinic = {
      {"platform.upload_bundle_us", "us"},
      {"crypto.envelope_seal_us", "us"},
      {"ingestion.drain_us_per_upload", "us"},
      {"exec.pool_cycle_us", "us"},
      {"crypto.envelope_open_us", "us"},
      {"fhir.parse_validate_us", "us"},
      {"ingestion.malware_scan_us", "us"},
      {"privacy.deidentify_us", "us"},
      {"storage.lake_put_us", "us"},
      {"blockchain.commit_us", "us"},
      {"provenance.flush_ms", "ms"},
      {"ingestion.unattributed_us_per_upload", "us"},
      {"blockchain.tx_per_upload", "count"},
      {"provenance.anchored_batches_per_round", "count"},
      {"storage.lake_bytes_per_record", "bytes"},
  };
  static const std::vector<MetricSpec> reads = {
      {"platform.gateway_record_get_us", "us"},
      {"storage.lake_get_us", "us"},
      {"platform.gateway_overhead_us", "us"},
      {"blockchain.lifecycle_ms", "ms"},
      {"ingestion.export_anonymized_ms", "ms"},
      {"platform.client_fetch_us", "us"},
      {"cache.hit_ratio", "ratio"},
      {"blockchain.chain_tx_count", "count"},
  };
  static const std::vector<MetricSpec> study = {
      {"analytics.jmf_fit_ms", "ms"},
      {"analytics.jmf_epoch_ms", "ms"},
      {"analytics.delt_fit_ms", "ms"},
      {"analytics.jmf_fit_1w_ms", "ms"},
      {"analytics.delt_fit_1w_ms", "ms"},
      {"analytics.kernel_multiply_transposed_us", "us"},
      {"analytics.kernel_syrk_us", "us"},
      {"analytics.kernel_residual_us", "us"},
      {"analytics.kernel_fused_sub_multiply_add_us", "us"},
      {"exec.parallel_for_empty_us", "us"},
      {"ckpt.publish_ms", "ms"},
      {"ckpt.load_ms", "ms"},
      {"ckpt.file_bytes", "bytes"},
  };
  static const std::vector<MetricSpec> none;
  if (workload == "clinic_ingest") return clinic;
  if (workload == "analyst_reads") return reads;
  if (workload == "study_fit") return study;
  return none;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadContext& context) {
  if (name == "clinic_ingest") return std::make_unique<ClinicIngest>(context);
  if (name == "analyst_reads") return std::make_unique<AnalystReads>(context);
  if (name == "study_fit") return std::make_unique<StudyFit>(context);
  return nullptr;
}

}  // namespace pb

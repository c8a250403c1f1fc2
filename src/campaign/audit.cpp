#include "campaign/audit.hpp"

namespace secbus::campaign {

const char* to_string(AuditEvent event) noexcept {
  switch (event) {
    case AuditEvent::kGrant: return "grant";
    case AuditEvent::kReassigned: return "reassigned";
    case AuditEvent::kExtend: return "extend";
    case AuditEvent::kExpire: return "expire";
    case AuditEvent::kRelease: return "release";
    case AuditEvent::kRefuse: return "refuse";
    case AuditEvent::kCommit: return "commit";
    case AuditEvent::kServerStart: return "server_start";
  }
  return "unknown";
}

bool parse_audit_event(std::string_view text, AuditEvent& out) noexcept {
  for (AuditEvent e : {AuditEvent::kGrant, AuditEvent::kReassigned,
                       AuditEvent::kExtend, AuditEvent::kExpire,
                       AuditEvent::kRelease, AuditEvent::kRefuse,
                       AuditEvent::kCommit, AuditEvent::kServerStart}) {
    if (text == to_string(e)) {
      out = e;
      return true;
    }
  }
  return false;
}

util::Json audit_record_to_json(const AuditRecord& record) {
  util::Json j = util::Json::object();
  j.set("t_ms", util::Json::number(record.t_ms));
  j.set("event", util::Json::string(to_string(record.event)));
  j.set("shard", util::Json::number(static_cast<std::uint64_t>(record.shard)));
  j.set("generation", util::Json::number(record.generation));
  j.set("epoch", util::Json::number(record.epoch));
  j.set("worker", util::Json::string(record.worker));
  if (!record.detail.empty())
    j.set("detail", util::Json::string(record.detail));
  if (!record.campaign.empty()) {
    j.set("campaign", util::Json::string(record.campaign));
    j.set("shards",
          util::Json::number(static_cast<std::uint64_t>(record.shards)));
    j.set("jobs", util::Json::number(static_cast<std::uint64_t>(record.jobs)));
    j.set("grid_fp", util::Json::number(record.grid_fp));
  }
  if (!record.file.empty()) j.set("file", util::Json::string(record.file));
  return j;
}

bool audit_record_from_json(const util::Json& j, AuditRecord& out,
                            std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error) *error = "audit record: " + why;
    return false;
  };
  if (!j.is_object()) return fail("not an object");
  const util::Json* event = j.find("event");
  if (event == nullptr || !event->is_string())
    return fail("missing \"event\"");
  AuditRecord record;
  if (!parse_audit_event(event->as_string(), record.event))
    return fail("unknown event \"" + event->as_string() + "\"");
  const util::Json* t_ms = j.find("t_ms");
  const util::Json* shard = j.find("shard");
  const util::Json* generation = j.find("generation");
  const util::Json* worker = j.find("worker");
  std::uint64_t shard_u = 0;
  if (t_ms == nullptr || shard == nullptr || generation == nullptr ||
      worker == nullptr || !worker->is_string() ||
      !t_ms->to_u64(record.t_ms) || !shard->to_u64(shard_u) ||
      !generation->to_u64(record.generation))
    return fail("missing field");
  record.shard = static_cast<std::size_t>(shard_u);
  record.worker = worker->as_string();
  // Optional for back-compat: logs from before the epoch field are epoch 0.
  if (const util::Json* epoch = j.find("epoch"); epoch != nullptr)
    (void)epoch->to_u64(record.epoch);
  if (const util::Json* detail = j.find("detail");
      detail != nullptr && detail->is_string())
    record.detail = detail->as_string();
  // Identity and file are optional: only server_start and commit carry
  // them. A partial identity reads as none, so replay never trusts it.
  if (const util::Json* campaign = j.find("campaign");
      campaign != nullptr && campaign->is_string()) {
    const util::Json* shards = j.find("shards");
    const util::Json* jobs = j.find("jobs");
    const util::Json* grid_fp = j.find("grid_fp");
    std::uint64_t shards_u = 0;
    std::uint64_t jobs_u = 0;
    if (shards != nullptr && jobs != nullptr && grid_fp != nullptr &&
        shards->to_u64(shards_u) && jobs->to_u64(jobs_u) &&
        grid_fp->to_u64(record.grid_fp)) {
      record.campaign = campaign->as_string();
      record.shards = static_cast<std::size_t>(shards_u);
      record.jobs = static_cast<std::size_t>(jobs_u);
    }
  }
  if (const util::Json* file = j.find("file");
      file != nullptr && file->is_string())
    record.file = file->as_string();
  out = std::move(record);
  return true;
}

std::string audit_file_name(const std::string& campaign) {
  return campaign + ".fleet-audit.jsonl";
}

bool read_audit_log(const std::string& path, std::vector<AuditRecord>& out,
                    std::string* error) {
  std::vector<util::Json> lines;
  if (!util::read_jsonl(path, lines, error)) return false;
  out.clear();
  out.reserve(lines.size());
  for (const util::Json& line : lines) {
    AuditRecord record;
    if (audit_record_from_json(line, record)) out.push_back(std::move(record));
  }
  return true;
}

bool replay_lease_log(const std::vector<AuditRecord>& records,
                      LeaseLogState& out, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "lease log " + why;
    return false;
  };
  LeaseLogState state;
  for (const AuditRecord& record : records) {
    if (record.event == AuditEvent::kServerStart) {
      if (record.campaign.empty() || record.shards == 0) continue;
      if (!state.any_epoch) {
        state.any_epoch = true;
        state.campaign = record.campaign;
        state.shards = record.shards;
        state.jobs = record.jobs;
        state.grid_fp = record.grid_fp;
        state.last_epoch = record.epoch;
        continue;
      }
      if (record.campaign != state.campaign ||
          record.shards != state.shards || record.jobs != state.jobs ||
          record.grid_fp != state.grid_fp) {
        return fail("mixes different campaigns or grids; refusing to resume "
                    "from it");
      }
      if (record.epoch < state.last_epoch) {
        return fail("epoch went backwards (" + std::to_string(record.epoch) +
                    " after " + std::to_string(state.last_epoch) + ")");
      }
      state.last_epoch = record.epoch;
    } else if (record.event == AuditEvent::kCommit && !record.file.empty()) {
      if (state.any_epoch && record.shard >= state.shards) {
        return fail("commit for shard " + std::to_string(record.shard) +
                    " of a " + std::to_string(state.shards) +
                    "-shard campaign");
      }
      state.committed[record.shard] =
          LeaseCommit{record.epoch, record.generation, record.worker,
                      record.file};
    }
  }
  out = std::move(state);
  return true;
}

}  // namespace secbus::campaign

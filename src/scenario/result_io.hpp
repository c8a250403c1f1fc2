// JSON (de)serialization of JobResult — the unit of work that crosses
// process boundaries.
//
// Shard workers and checkpoint files ship completed JobResults as JSON; the
// merge step replays them into the ordinary aggregation pipeline
// (BatchAggregate / CampaignReport). The contract is *bit*-fidelity, not
// just value fidelity: every double round-trips to the identical IEEE-754
// pattern (util::JsonWriter prints %.15g when that parses back to the same
// bits, else %.17g), RunningStat moments restore their exact internal
// state, and a LatencyHistogram ships as its nonzero (cycle, count) buckets
// in ascending order plus count/overflow/sum/min/max, which restore every
// value it reports. So a report built from merged shard files is
// byte-identical to one built in-process.
// job_result_io_test locks this down field by field.
#pragma once

#include <string>

#include "scenario/scenario.hpp"
#include "util/json.hpp"

namespace secbus::scenario {

// Streams every JobResult field (histograms as sparse bucket tables).
void write_job_result(util::JsonWriter& w, const JobResult& r);
// The same document as a tree; its dump(0) is write_job_result's bytes.
[[nodiscard]] util::Json job_result_to_json(const JobResult& r);

// Decodes one write_job_result() document straight from the text (compact
// or indented; members in the written order) into `out`, which is reset
// first. On failure returns false with the offending field path in
// r.error(), leaving `out` partly filled. Histogram tables must be ones a
// histogram can have written (strictly ascending cycles, buckets + overflow
// == count, min <= max, no bucket below min or above max, and sum >=
// sum of cycle x count + overflow x kTrackedMax) and doubles finite, so
// whatever is accepted re-serializes to its own bytes.
bool read_job_result(util::JsonReader& r, JobResult& out);

}  // namespace secbus::scenario

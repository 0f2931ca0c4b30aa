#include "live/update_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "bgp/line_parse.hpp"
#include "live/checkpoint.hpp"
#include "live/journal.hpp"

namespace georank::live {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

UpdatePipeline::UpdatePipeline(core::Pipeline& pipeline,
                               serve::RankingService& service,
                               UpdatePipelineOptions options)
    : pipeline_(&pipeline), service_(&service), options_(std::move(options)) {
  if (options_.flush_batch == 0) options_.flush_batch = 1;
  if (options_.max_pending == 0) options_.max_pending = 1;
}

std::optional<FlushReport> UpdatePipeline::push(const bgp::UpdateMessage& update) {
  ++stats_.pushed;
  const std::uint64_t seq = seq_++;
  // Write-ahead: the journal holds the record before anything can act
  // on it, so a crash at any later point can replay this push.
  if (journal_) journal_->append(seq, update);

  if (options_.overflow == OverflowPolicy::kShedNewest &&
      buffer_.size() >= options_.max_pending) {
    // At capacity the arriving update pays. The decision is a pure
    // function of buffer state, so a journal replay sheds it again.
    if (options_.mode == bgp::ParseMode::kStrict) {
      throw bgp::UpdateReplayError{
          bgp::UpdateReplayError::Kind::kBufferOverflow,
          static_cast<std::size_t>(seq), update.timestamp};
    }
    ++stats_.shed;
    maybe_checkpoint();
    return std::nullopt;
  }

  buffer_.emplace(update.timestamp, Pending{update, seq});
  if (update.timestamp > max_seen_) max_seen_ = update.timestamp;

  // Watermark drain: everything the reorder window can no longer save.
  const std::uint64_t watermark =
      max_seen_ > options_.reorder_window ? max_seen_ - options_.reorder_window
                                          : 0;
  drain_up_to(watermark);

  // Bounded buffer: the default policy drains the oldest pending
  // updates early. They are the buffer's minimum timestamps, so
  // applying them keeps the applied sequence monotone.
  if (options_.overflow == OverflowPolicy::kDrainOldest) {
    while (buffer_.size() > options_.max_pending) {
      Pending pending = std::move(buffer_.begin()->second);
      buffer_.erase(buffer_.begin());
      apply_one(pending);
    }
  }

  std::optional<FlushReport> report;
  if (batch_applied_ >= options_.flush_batch) report = flush();
  // Checkpoint after the flush so the captured state is post-publish.
  maybe_checkpoint();
  return report;
}

void UpdatePipeline::drain_up_to(std::uint64_t watermark) {
  while (!buffer_.empty() && buffer_.begin()->first <= watermark) {
    Pending pending = std::move(buffer_.begin()->second);
    buffer_.erase(buffer_.begin());
    apply_one(pending);
  }
}

void UpdatePipeline::apply_one(const Pending& pending) {
  const bgp::UpdateMessage& u = pending.update;
  int day = 0;
  if (bgp::detail::day_from_timestamp(u.timestamp, options_.base_time,
                                      options_.max_day, day) !=
      bgp::ParseReason::kOk) {
    if (options_.mode == bgp::ParseMode::kStrict) {
      throw bgp::UpdateReplayError{
          bgp::UpdateReplayError::Kind::kDayOutOfRange,
          static_cast<std::size_t>(pending.seq), u.timestamp};
    }
    ++stats_.day_out_of_range;
    return;
  }
  if (u.timestamp < last_applied_ts_) {
    // Late beyond the reorder window: the watermark already passed it.
    if (options_.mode == bgp::ParseMode::kStrict) {
      throw bgp::UpdateReplayError{bgp::UpdateReplayError::Kind::kOutOfOrder,
                                   static_cast<std::size_t>(pending.seq),
                                   u.timestamp};
    }
    ++stats_.out_of_order;
    return;
  }
  last_applied_ts_ = u.timestamp;

  // Day advance closes the finished day and any quiet days it skipped —
  // the exact semantics of bgp::replay_to_collection, so the final
  // window equals the batch replay of the same archive.
  if (current_day_ >= 0 && day != current_day_) {
    // The pipeline's final day is closing: the next flush must hand it
    // the whole window, not a delta to a day it will no longer have last.
    delta_ready_ = false;
    batch_before_.clear();
    for (int d = current_day_; d < day; ++d) {
      window_.days.push_back(rib_.snapshot(d));
      ++stats_.days_closed;
      if (d > current_day_) ++stats_.quiet_days;
    }
    if (options_.window_days > 0) {
      while (window_.days.size() >= options_.window_days) {
        window_.days.erase(window_.days.begin());
      }
    }
  }
  current_day_ = day;
  if (delta_ready_) {
    // First touch in this batch: remember the path the pipeline's world
    // holds for the key, so flush() can hand over the net change.
    const auto [it, first] = batch_before_.try_emplace(RouteKey{u.vp, u.prefix});
    if (first) {
      if (const bgp::AsPath* path = rib_.find(u.vp, u.prefix)) it->second = *path;
    }
  }
  rib_.apply(u);

  ++stats_.applied;
  ++batch_applied_;
  if (u.kind == bgp::UpdateMessage::Kind::kAnnounce) {
    ++stats_.announces;
    ++batch_announces_;
  } else {
    ++stats_.withdraws;
    ++batch_withdraws_;
  }
  batch_prefixes_.push_back(u.prefix);
}

std::vector<geo::CountryCode> UpdatePipeline::touched_countries(
    std::span<const bgp::Prefix> prefixes) const {
  const geo::GeoDatabase& db = pipeline_->geo_db();
  std::vector<geo::CountryCode> countries;
  for (const bgp::Prefix& prefix : prefixes) {
    for (const geo::CountrySlice& slice :
         db.count_by_country(prefix.first(), prefix.last())) {
      if (slice.country.valid()) countries.push_back(slice.country);
    }
  }
  std::sort(countries.begin(), countries.end());
  countries.erase(std::unique(countries.begin(), countries.end()),
                  countries.end());
  return countries;
}

FlushReport UpdatePipeline::flush() {
  FlushReport report;
  ++stats_.flushes;
  report.batch = batch_applied_;
  report.announces = batch_announces_;
  report.withdraws = batch_withdraws_;
  if (batch_applied_ == 0) {
    // Nothing applied since the last flush: the world is unchanged, so
    // republishing would only burn a snapshot id.
    report_ingest(report);
    return report;
  }

  const Clock::time_point start = Clock::now();
  std::vector<bgp::Prefix> prefixes = batch_prefixes_;
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
  report.touched_countries = touched_countries(prefixes);
  report.touched_prefixes = prefixes.size();

  // No day closed since the last flush: the pipeline's world differs
  // from the live table only in the keys this batch touched, so hand it
  // their net changes. Otherwise — or when the pipeline declines the
  // delta — the window's closed days sit in window_ already and only
  // the live day needs materializing: append it for the apply, then
  // drop it, since the next flush's live day will have moved on.
  const Clock::time_point apply_start = Clock::now();
  std::optional<core::Pipeline::ApplyResult> applied;
  if (delta_ready_) {
    std::vector<bgp::RouteDelta> deltas;
    deltas.reserve(batch_before_.size());
    for (auto& [key, before] : batch_before_) {
      std::optional<bgp::AsPath> after;
      if (const bgp::AsPath* path = rib_.find(key.vp, key.prefix)) after = *path;
      if (before != after) {
        deltas.push_back(
            bgp::RouteDelta{key.vp, key.prefix, std::move(before), std::move(after)});
      }
    }
    applied = pipeline_->apply_delta(current_day_, deltas);
  }
  if (applied) {
    report.apply = *applied;
  } else {
    window_.days.push_back(rib_.snapshot(current_day_));
    report.apply = pipeline_->apply_updates(window_);
    window_.days.pop_back();
  }
  batch_before_.clear();
  delta_ready_ = true;
  report.apply_seconds = seconds_since(apply_start);

  // Only countries whose shard digest changed were evicted above, so
  // this census re-ranks exactly those; everything else is a memo hit.
  const Clock::time_point census_start = Clock::now();
  serve::SnapshotMeta meta;
  meta.id = options_.snapshot_id_base + stats_.publishes;
  meta.created_unix = last_applied_ts_;
  meta.label = options_.label;
  auto snapshot = std::make_shared<const serve::Snapshot>(
      serve::Snapshot::build(*pipeline_, std::move(meta)));
  report.census_seconds = seconds_since(census_start);

  const Clock::time_point publish_start = Clock::now();
  report.snapshot_id = snapshot->meta.id;
  service_->publish(std::move(snapshot));
  report.publish_seconds = seconds_since(publish_start);
  report.total_seconds = seconds_since(start);
  report.published = true;
  ++stats_.publishes;

  republish_seconds_sum_ += report.total_seconds;
  last_republish_seconds_ = report.total_seconds;
  last_batch_ = report.batch;

  batch_applied_ = 0;
  batch_announces_ = 0;
  batch_withdraws_ = 0;
  batch_prefixes_.clear();

  report_ingest(report);
  return report;
}

FlushReport UpdatePipeline::drain() {
  drain_up_to(~std::uint64_t{0});
  return flush();
}

void UpdatePipeline::set_journal(UpdateJournal* journal) {
  if (journal && journal->next_seq() != seq_) {
    throw JournalError(
        JournalErrorKind::kBadSequence,
        "journal next_seq " + std::to_string(journal->next_seq()) +
            " != pipeline next_seq " + std::to_string(seq_) +
            " (recover() first, or start from a fresh journal)");
  }
  journal_ = journal;
}

void UpdatePipeline::set_checkpoint(std::string path, std::uint64_t every) {
  checkpoint_path_ = std::move(path);
  checkpoint_every_ = every;
}

Checkpoint UpdatePipeline::make_checkpoint() const {
  Checkpoint ckpt;
  ckpt.seq = seq_;
  ckpt.max_seen = max_seen_;
  ckpt.last_applied_ts = last_applied_ts_;
  ckpt.current_day = current_day_;
  // snapshot() orders entries deterministically; the day index is
  // irrelevant here (restore only reads the entries).
  ckpt.rib_entries = rib_.snapshot(0).entries;
  ckpt.spurious_withdrawals = rib_.spurious_withdrawals();
  ckpt.window = window_;
  ckpt.pending.reserve(buffer_.size());
  for (const auto& [timestamp, pending] : buffer_) {
    (void)timestamp;
    ckpt.pending.push_back(JournalRecord{pending.seq, pending.update});
  }
  ckpt.batch_applied = batch_applied_;
  ckpt.batch_announces = batch_announces_;
  ckpt.batch_withdraws = batch_withdraws_;
  ckpt.batch_prefixes = batch_prefixes_;
  ckpt.stats = stats_;
  ckpt.republish_seconds_sum = republish_seconds_sum_;
  ckpt.last_republish_seconds = last_republish_seconds_;
  ckpt.last_batch = last_batch_;
  return ckpt;
}

void UpdatePipeline::write_checkpoint() {
  if (checkpoint_path_.empty()) return;
  // Journal first: the checkpoint's boundary must not outrun the
  // durable journal, or a crash between the two loses the suffix.
  if (journal_) journal_->sync();
  ++stats_.checkpoints;
  write_checkpoint_file(checkpoint_path_, make_checkpoint());
  if (journal_) journal_->drop_segments_below(seq_);
}

void UpdatePipeline::maybe_checkpoint() {
  if (checkpoint_every_ > 0 && stats_.pushed % checkpoint_every_ == 0) {
    write_checkpoint();
  }
}

void UpdatePipeline::restore(const Checkpoint& ckpt) {
  seq_ = ckpt.seq;
  max_seen_ = ckpt.max_seen;
  last_applied_ts_ = ckpt.last_applied_ts;
  current_day_ = ckpt.current_day;
  rib_.restore(ckpt.rib_entries,
               static_cast<std::size_t>(ckpt.spurious_withdrawals));
  window_ = ckpt.window;
  buffer_.clear();
  // Checkpointed pending order IS multimap iteration order, so equal
  // timestamps re-enter in their original insertion order.
  for (const JournalRecord& record : ckpt.pending) {
    buffer_.emplace(record.update.timestamp,
                    Pending{record.update, record.seq});
  }
  batch_applied_ = static_cast<std::size_t>(ckpt.batch_applied);
  batch_announces_ = static_cast<std::size_t>(ckpt.batch_announces);
  batch_withdraws_ = static_cast<std::size_t>(ckpt.batch_withdraws);
  batch_prefixes_ = ckpt.batch_prefixes;
  stats_ = ckpt.stats;
  // The checkpoint carries no world for the core pipeline, so the first
  // flush after a restore hands it the whole window.
  delta_ready_ = false;
  batch_before_.clear();
  republish_seconds_sum_ = ckpt.republish_seconds_sum;
  last_republish_seconds_ = ckpt.last_republish_seconds;
  last_batch_ = ckpt.last_batch;
}

void UpdatePipeline::report_ingest(const FlushReport&) {
  serve::IngestCounters counters;
  counters.updates_applied = stats_.applied;
  counters.announces = stats_.announces;
  counters.withdraws = stats_.withdraws;
  counters.spurious_withdrawals = rib_.spurious_withdrawals();
  counters.out_of_order = stats_.out_of_order;
  counters.day_out_of_range = stats_.day_out_of_range;
  counters.parse_lines = parse_stats_.lines;
  counters.parse_malformed = parse_stats_.malformed;
  counters.republishes = stats_.publishes;
  counters.republish_seconds_sum = republish_seconds_sum_;
  counters.last_republish_seconds = last_republish_seconds_;
  counters.last_batch = last_batch_;
  counters.shed = stats_.shed;
  counters.checkpoints = stats_.checkpoints;
  service_->set_ingest(counters);
}

}  // namespace georank::live

#include "kv/pending_read.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "io/async_io.h"
#include "kv/faster_store.h"

namespace mlkv {

void PendingSink::Park(FasterStore* store, PendingRead&& read,
                       std::function<void(PendingRead*)> finish) {
  entries_.push_back(Entry{store, std::move(read), std::move(finish)});
}

void PendingReadWave::Adopt(PendingSink* sink) {
  if (entries_.empty()) {
    entries_ = std::move(sink->entries_);
  } else {
    for (auto& e : sink->entries_) entries_.push_back(std::move(e));
  }
  sink->entries_.clear();
}

void PendingReadWave::Submit() {
  if (entries_.empty()) return;
  // Carve every entry's landing area out of one buffer (8-byte aligned, so
  // each header parses from an aligned address).
  size_t total = 0;
  for (const PendingSink::Entry& e : entries_) {
    total += (e.read.buf_len + 7u) & ~size_t{7};
  }
  landing_.resize(total);
  size_t offset = 0;
  for (PendingSink::Entry& e : entries_) {
    e.read.buf = landing_.data() + offset;
    offset += (e.read.buf_len + 7u) & ~size_t{7};
  }

  // Coalescing: duplicate cold keys in a batch — and distinct keys whose
  // chains meet at the same cold record — fetch each (store, address)
  // image once. The member with the largest landing buffer leads a group;
  // followers copy its bytes on completion.
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Target target(entries_[i].store, entries_[i].read.address);
    const auto [it, fresh] = by_target_.emplace(target, groups_.size());
    if (fresh) {
      groups_.push_back(Group{target, {i}, i});
    } else {
      Group& g = groups_[it->second];
      g.members.push_back(i);
      if (entries_[i].read.buf_len > entries_[g.leader].read.buf_len) {
        g.leader = i;  // pre-submission: the largest buffer leads
      }
    }
  }

  // Span merging: walk the groups in (store, address) order and chain each
  // onto the read before it when it starts past that read's last record
  // and ends within kMaxMergedReadBytes of its start. A group adds its
  // record's segment, after a gap segment for any bytes in between,
  // whatever log pages they cross.
  std::vector<size_t> order(groups_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return groups_[a].target < groups_[b].target;
  });
  segments_.reserve(2 * groups_.size());
  struct Read {
    size_t group;    // first of its chain
    size_t segment;  // first in segments_
    size_t count;    // 1: a one-record read
  };
  std::vector<Read> reads;
  size_t last = kNoGroup;  // tail of the chain being built
  Address begin = 0, end = 0;
  for (const size_t g : order) {
    const auto [store, address] = groups_[g].target;
    const PendingRead& lead = entries_[groups_[g].leader].read;
    const Address record_end = address + lead.buf_len;
    if (last != kNoGroup && store == groups_[last].target.first) {
      Read& r = reads.back();
      const size_t count = r.count + (address > end ? 1 : 0) + 1;
      if (address >= end && record_end - begin <= kMaxMergedReadBytes &&
          count <= AsyncIoEngine::kMaxReadSegments) {
        if (address > end) {
          segments_.push_back(AsyncIoEngine::ReadSegment{
              nullptr, static_cast<uint32_t>(address - end)});
        }
        segments_.push_back(AsyncIoEngine::ReadSegment{lead.buf, lead.buf_len});
        r.count = count;
        groups_[last].next = g;
        last = g;
        end = record_end;
        continue;
      }
    }
    reads.push_back(Read{g, segments_.size(), 1});
    segments_.push_back(AsyncIoEngine::ReadSegment{lead.buf, lead.buf_len});
    last = g;
    begin = address;
    end = record_end;
  }

  // One submission wave: every read goes into flight before any
  // completion is waited on.
  for (const Read& r : reads) {
    SubmitRead(r.group, r.count == 1 ? nullptr : &segments_[r.segment],
               r.count);
  }
}

// Fails every remaining member of a read whose submission was refused
// (engine shutdown): the submit error is each key's outcome.
void PendingReadWave::FailRead(size_t g, const Status& s) {
  entries_[groups_[g].leader].store->CountAsyncCompleted();
  for (; g != kNoGroup; g = groups_[g].next) {
    const auto it = by_target_.find(groups_[g].target);
    if (it != by_target_.end() && it->second == g) by_target_.erase(it);
    std::vector<size_t> members;
    members.swap(groups_[g].members);
    for (const size_t m : members) {
      PendingSink::Entry& e = entries_[m];
      (void)e.store->CompletePendingRead(&e.read, s);  // always kDone
      if (e.finish) e.finish(&e.read);
    }
  }
}

void PendingReadWave::SubmitRead(size_t g,
                                 const AsyncIoEngine::ReadSegment* segments,
                                 size_t count) {
  PendingSink::Entry& lead = entries_[groups_[g].leader];
  lead.store->CountAsyncSubmitted();
  const FileDevice* device = lead.store->mutable_log()->device();
  const Status s =
      segments == nullptr
          ? batch_.Submit(device, lead.read.address, lead.read.buf,
                          lead.read.buf_len, g)
          : batch_.Submit(device, lead.read.address, segments, count, g);
  if (!s.ok()) FailRead(g, s);
}

// Advances entry `i` with its landed (or failed) I/O. A chain hop joins
// the in-flight fetch of its next address when one exists (and its buffer
// fits inside the leader's), otherwise opens a fresh group and submits it
// immediately, as a read of its own.
void PendingReadWave::Step(size_t i, const Status& io_status) {
  PendingSink::Entry& e = entries_[i];
  if (e.store->CompletePendingRead(&e.read, io_status) ==
      FasterStore::PendingStep::kDone) {
    if (e.finish) e.finish(&e.read);
    return;
  }
  const Target target(e.store, e.read.address);
  const auto it = by_target_.find(target);
  if (it != by_target_.end() && e.read.buf_len <= LeaderLen(it->second)) {
    groups_[it->second].members.push_back(i);  // rides the in-flight I/O
    return;
  }
  const size_t g = groups_.size();
  groups_.push_back(Group{target, {i}, i});
  if (it == by_target_.end()) by_target_.emplace(target, g);
  SubmitRead(g, nullptr, 0);
}

// Hands group `g` the outcome of the read that carried it.
void PendingReadWave::CompleteGroup(size_t g, const Status& io_status) {
  // Copy the group fields out before stepping: a member's chain-hop
  // resubmission grows `groups_`, invalidating references into it.
  const size_t leader = groups_[g].leader;
  const Target target = groups_[g].target;
  std::vector<size_t> members;
  members.swap(groups_[g].members);
  // Close the group before stepping members, so a member's own hop back
  // to this address opens a fresh fetch rather than joining a dead one.
  {
    const auto it = by_target_.find(target);
    if (it != by_target_.end() && it->second == g) by_target_.erase(it);
  }
  if (members.empty()) return;
  PendingSink::Entry& lead = entries_[leader];  // entries_ never grows
  if (io_status.ok()) lead.store->mutable_log()->NoteDiskRecordRead();
  // Followers copy the shared bytes first: the leader's continuation may
  // reuse its buffer for a chain-hop resubmission.
  for (const size_t m : members) {
    if (m == leader) continue;
    PendingRead& r = entries_[m].read;
    std::memcpy(r.buf, lead.read.buf, std::min(r.buf_len, lead.read.buf_len));
    Step(m, io_status);
  }
  Step(leader, io_status);
}

void PendingReadWave::Complete() {
  AsyncIoEngine::Completion c;
  while (batch_.WaitOne(&c)) {
    entries_[groups_[c.tag].leader].store->CountAsyncCompleted();
    // Index afresh each step: completing a group may grow `groups_`.
    for (size_t g = c.tag; g != kNoGroup; g = groups_[g].next) {
      CompleteGroup(g, c.status);
    }
  }
}

}  // namespace mlkv

#include "kv/pending_read.h"

#include <algorithm>
#include <cstring>
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

  // One submission wave: every group's I/O goes into flight before any
  // completion is waited on.
  const size_t initial_groups = groups_.size();
  for (size_t g = 0; g < initial_groups; ++g) SubmitGroup(g);
}

// Fails every remaining member of a group whose submission was refused
// (engine shutdown): the submit error is each key's outcome.
void PendingReadWave::FailGroup(size_t g, const Status& s) {
  std::vector<size_t> members;
  members.swap(groups_[g].members);
  entries_[groups_[g].leader].store->CountAsyncCompleted();
  for (const size_t m : members) {
    PendingSink::Entry& e = entries_[m];
    (void)e.store->CompletePendingRead(&e.read, s);  // always kDone
    if (e.finish) e.finish(&e.read);
  }
}

void PendingReadWave::SubmitGroup(size_t g) {
  PendingSink::Entry& lead = entries_[groups_[g].leader];
  lead.store->CountAsyncSubmitted();
  const Status s =
      batch_.Submit(lead.store->mutable_log()->device(), lead.read.address,
                    lead.read.buf, lead.read.buf_len, g);
  if (!s.ok()) {
    const auto it = by_target_.find(groups_[g].target);
    if (it != by_target_.end() && it->second == g) by_target_.erase(it);
    FailGroup(g, s);
  }
}

// Advances entry `i` with its landed (or failed) I/O. A chain hop joins
// the in-flight fetch of its next address when one exists (and its buffer
// fits inside the leader's), otherwise opens a fresh group and submits it
// immediately.
void PendingReadWave::Step(size_t i, const Status& io_status) {
  PendingSink::Entry& e = entries_[i];
  if (e.store->CompletePendingRead(&e.read, io_status) ==
      FasterStore::PendingStep::kDone) {
    if (e.finish) e.finish(&e.read);
    return;
  }
  const Target target(e.store, e.read.address);
  const auto it = by_target_.find(target);
  if (it != by_target_.end() &&
      e.read.buf_len <= entries_[groups_[it->second].leader].read.buf_len) {
    groups_[it->second].members.push_back(i);  // rides the in-flight I/O
    return;
  }
  const size_t g = groups_.size();
  groups_.push_back(Group{target, {i}, i});
  if (it == by_target_.end()) by_target_.emplace(target, g);
  SubmitGroup(g);
}

void PendingReadWave::Complete() {
  AsyncIoEngine::Completion c;
  while (batch_.WaitOne(&c)) {
    // Copy the group fields out before stepping: a member's chain-hop
    // resubmission grows `groups_`, invalidating references into it.
    const size_t leader = groups_[c.tag].leader;
    const Target target = groups_[c.tag].target;
    std::vector<size_t> members;
    members.swap(groups_[c.tag].members);
    // Close the group before stepping members, so a member's own hop back
    // to this address opens a fresh fetch rather than joining a dead one.
    {
      const auto it = by_target_.find(target);
      if (it != by_target_.end() && it->second == c.tag) by_target_.erase(it);
    }
    if (members.empty()) continue;
    PendingSink::Entry& lead = entries_[leader];  // entries_ never grows
    lead.store->CountAsyncCompleted();
    if (c.status.ok()) lead.store->mutable_log()->NoteDiskRecordRead();
    // Followers copy the shared bytes first: the leader's continuation may
    // reuse its buffer for a chain-hop resubmission.
    for (const size_t m : members) {
      if (m == leader) continue;
      PendingRead& r = entries_[m].read;
      std::memcpy(r.buf, lead.read.buf,
                  std::min(r.buf_len, lead.read.buf_len));
      Step(m, c.status);
    }
    Step(leader, c.status);
  }
}

}  // namespace mlkv

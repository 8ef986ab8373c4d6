#include "s3/social/pair_store.h"

#include <algorithm>

namespace s3::social {

PairStore::Stats& PairStore::upsert(UserPair p) {
  S3_REQUIRE(p.a != p.b, "PairStore: self pair");
  grow_if_needed();
  const std::uint64_t key = pack(p);
  const std::size_t i = probe(key);
  if (slots_[i].key == kEmptyKey) {
    slots_[i].key = key;
    slots_[i].stats = Stats{};
    ++size_;
    drop_neighbor_index();
  }
  return slots_[i].stats;
}

bool PairStore::assign(UserPair p, const Stats& stats) {
  S3_REQUIRE(p.a != p.b, "PairStore: self pair");
  grow_if_needed();
  const std::uint64_t key = pack(p);
  const std::size_t i = probe(key);
  const bool fresh = slots_[i].key == kEmptyKey;
  if (fresh) {
    slots_[i].key = key;
    ++size_;
    drop_neighbor_index();
  }
  slots_[i].stats = stats;
  return fresh;
}

bool PairStore::erase(UserPair p) {
  if (size_ == 0) return false;
  const std::uint64_t key = pack(p);
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = hash(key) & mask;
  while (slots_[hole].key != key) {
    if (slots_[hole].key == kEmptyKey) return false;
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: walk the chain after the hole and pull
  // back every entry whose home position lies cyclically at or before
  // the hole, so probe chains stay gap-free without tombstones.
  std::size_t j = (hole + 1) & mask;
  while (slots_[j].key != kEmptyKey) {
    const std::size_t home = hash(slots_[j].key) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
    j = (j + 1) & mask;
  }
  slots_[hole].key = kEmptyKey;
  slots_[hole].stats = Stats{};
  --size_;
  drop_neighbor_index();
  return true;
}

void PairStore::clear() {
  slots_.clear();
  size_ = 0;
  max_load_ = 0;
  drop_neighbor_index();
}

void PairStore::reserve(std::size_t expected_pairs) {
  std::size_t cap = kMinCapacity;
  // Load-factor bound 1/2: misses in a linear-probe table cost
  // ~(1 + 1/(1-a)^2)/2 probes — 8.5 at a=3/4 but only 2.5 at a=1/2,
  // and the selector hot path is roughly half misses (candidate pairs
  // with no recorded history). Half-full costs 2x slots but keeps the
  // probe streak inside one or two cache lines.
  while (cap / 2 < expected_pairs) cap *= 2;
  if (cap > slots_.size()) rehash(cap);
}

void PairStore::rehash(std::size_t new_capacity) {
  std::vector<Slot> old;
  old.swap(slots_);
  slots_.assign(new_capacity, Slot{});
  max_load_ = new_capacity / 2;
  const std::size_t mask = new_capacity - 1;
  for (const Slot& s : old) {
    if (s.key == kEmptyKey) continue;
    std::size_t i = hash(s.key) & mask;
    while (slots_[i].key != kEmptyKey) i = (i + 1) & mask;
    slots_[i] = s;
  }
  drop_neighbor_index();
}

std::vector<PairStore::Entry> PairStore::sorted_entries() const {
  std::vector<Entry> entries;
  entries.reserve(size_);
  for_each([&](UserPair p, const Stats& s) { entries.push_back({p, s}); });
  std::sort(entries.begin(), entries.end(),
            [](const Entry& x, const Entry& y) { return x.pair < y.pair; });
  return entries;
}

void PairStore::build_neighbor_index(std::size_t num_users) {
  nbr_offsets_.assign(num_users + 1, 0);
  for_each([&](UserPair p, const Stats&) {
    S3_REQUIRE(p.b < num_users,
               "PairStore::build_neighbor_index: user out of range");
    ++nbr_offsets_[p.a + 1];
    ++nbr_offsets_[p.b + 1];
  });
  for (std::size_t u = 0; u < num_users; ++u) {
    nbr_offsets_[u + 1] += nbr_offsets_[u];
  }
  nbr_ids_.resize(2 * size_);
  nbr_slots_.resize(2 * size_);
  std::vector<std::size_t> cursor(nbr_offsets_.begin(),
                                  nbr_offsets_.end() - 1);
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].key == kEmptyKey) continue;
    const UserPair p = unpack(slots_[slot].key);
    nbr_ids_[cursor[p.a]] = p.b;
    nbr_slots_[cursor[p.a]++] = slot;
    nbr_ids_[cursor[p.b]] = p.a;
    nbr_slots_[cursor[p.b]++] = slot;
  }
  // Sort each row by partner id, carrying the slot column along.
  std::vector<std::pair<UserId, std::uint32_t>> row;
  for (std::size_t u = 0; u < num_users; ++u) {
    const std::size_t lo = nbr_offsets_[u], hi = nbr_offsets_[u + 1];
    row.clear();
    for (std::size_t i = lo; i < hi; ++i) {
      row.emplace_back(nbr_ids_[i], nbr_slots_[i]);
    }
    std::sort(row.begin(), row.end());
    for (std::size_t i = lo; i < hi; ++i) {
      nbr_ids_[i] = row[i - lo].first;
      nbr_slots_[i] = row[i - lo].second;
    }
  }
}

void PairStore::drop_neighbor_index() {
  nbr_offsets_.clear();
  nbr_ids_.clear();
  nbr_slots_.clear();
}

}  // namespace s3::social

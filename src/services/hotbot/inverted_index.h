// Inverted-index substrate for the HotBot search engine (paper §3.2).
//
// HotBot "performs millions of queries per day against a database of over 50
// million web pages", statically partitioned across worker nodes: "the database
// partitioning distributes documents randomly and it is acceptable to lose part of
// the database temporarily". This module provides a synthetic corpus generator, a
// real in-memory inverted index with TF scoring, and random sharding.
//
// A shard keys everything by dense ids: each term string is interned once into a
// term id that indexes a flat, doc-sorted posting vector, and each document gets a
// shard-local index into flat doc-id and title vectors. Strings remain only at the
// edges: the query terms (one dictionary lookup each), the titles, and the
// AddDocument test API. BuildShardedCorpus interns the whole vocabulary in rank
// order, so a Zipf rank is its own term id.

#ifndef SRC_SERVICES_HOTBOT_INVERTED_INDEX_H_
#define SRC_SERVICES_HOTBOT_INVERTED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/rng.h"

namespace sns {

struct SearchDocument {
  int64_t id = 0;
  std::string title;
  std::vector<std::string> terms;
};

struct SearchHit {
  int64_t doc_id = 0;
  double score = 0;
  std::string title;
};

struct CorpusConfig {
  uint64_t seed = 0x407B07;
  int64_t doc_count = 20000;
  int64_t vocabulary = 5000;
  double term_zipf_skew = 1.05;
  int min_terms = 30;
  int max_terms = 200;
};

class InvertedIndexShard;
using ShardPtr = std::shared_ptr<const InvertedIndexShard>;

class InvertedIndexShard {
 public:
  explicit InvertedIndexShard(int shard_id) : shard_id_(shard_id) {}

  // Interns the document's terms into this shard's dictionary and indexes it.
  void AddDocument(const SearchDocument& doc);

  // Conjunctive (AND) query with TF-sum ranking; returns up to `k` hits, highest
  // score first (ties by ascending doc id for determinism). A term the shard never
  // indexed makes the result empty; a repeated term counts once per repeat.
  std::vector<SearchHit> Search(const std::vector<std::string>& terms, size_t k) const;

  // Total postings that a query over `terms` must scan (drives simulated cost).
  int64_t CandidatePostings(const std::vector<std::string>& terms) const;

  int shard_id() const { return shard_id_; }
  int64_t doc_count() const { return static_cast<int64_t>(doc_ids_.size()); }
  int64_t term_count() const { return term_count_; }
  int64_t posting_count() const { return posting_count_; }

 private:
  friend std::vector<ShardPtr> BuildShardedCorpus(const CorpusConfig& config, int shard_count);

  using TermId = int32_t;
  struct Posting {
    int32_t doc = 0;  // Shard-local document index.
    int32_t tf = 0;
  };

  TermId Intern(const std::string& term);
  // The posting list of `term`; nullptr if the term was never interned.
  const std::vector<Posting>* Postings(const std::string& term) const;
  void AddDocument(int64_t doc_id, std::string title, const std::vector<TermId>& terms);

  int shard_id_;
  int64_t term_count_ = 0;  // Terms with at least one posting.
  int64_t posting_count_ = 0;
  std::unordered_map<std::string, TermId> term_ids_;
  std::vector<std::vector<Posting>> postings_;  // By term id; sorted by local doc.
  std::vector<int64_t> doc_ids_;                // By local doc.
  std::vector<std::string> titles_;             // By local doc.
  std::vector<int32_t> tf_;                     // By term id; zero between documents.
};

// Builds `shard_count` shards with documents distributed randomly (as HotBot did).
std::vector<ShardPtr> BuildShardedCorpus(const CorpusConfig& config, int shard_count);

// Draws a query of `terms` Zipf-popular vocabulary words.
std::vector<std::string> SampleQueryTerms(const CorpusConfig& config, Rng* rng, int terms);

// The vocabulary word with the given rank (rank 0 = most popular).
std::string VocabularyWord(int64_t rank);

}  // namespace sns

#endif  // SRC_SERVICES_HOTBOT_INVERTED_INDEX_H_

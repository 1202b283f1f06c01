#include "src/services/hotbot/inverted_index.h"

#include <algorithm>

#include "src/util/strings.h"

namespace sns {

InvertedIndexShard::TermId InvertedIndexShard::Intern(const std::string& term) {
  auto [it, inserted] = term_ids_.try_emplace(term, static_cast<TermId>(postings_.size()));
  if (inserted) {
    postings_.emplace_back();
    tf_.push_back(0);
  }
  return it->second;
}

const std::vector<InvertedIndexShard::Posting>* InvertedIndexShard::Postings(
    const std::string& term) const {
  auto it = term_ids_.find(term);
  return it == term_ids_.end() ? nullptr : &postings_[static_cast<size_t>(it->second)];
}

void InvertedIndexShard::AddDocument(const SearchDocument& doc) {
  std::vector<TermId> terms;
  terms.reserve(doc.terms.size());
  for (const std::string& term : doc.terms) {
    terms.push_back(Intern(term));
  }
  AddDocument(doc.id, doc.title, terms);
}

void InvertedIndexShard::AddDocument(int64_t doc_id, std::string title,
                                     const std::vector<TermId>& terms) {
  // Local indices grow with insertion, so every posting list stays sorted by them.
  auto doc = static_cast<int32_t>(doc_ids_.size());
  doc_ids_.push_back(doc_id);
  titles_.push_back(std::move(title));
  for (TermId term : terms) {
    ++tf_[static_cast<size_t>(term)];
  }
  for (TermId term : terms) {
    int32_t& tf = tf_[static_cast<size_t>(term)];
    if (tf == 0) {
      continue;  // A repeat of a term already posted for this document.
    }
    std::vector<Posting>& list = postings_[static_cast<size_t>(term)];
    if (list.empty()) {
      ++term_count_;
    }
    list.push_back(Posting{doc, tf});
    ++posting_count_;
    tf = 0;
  }
}

std::vector<SearchHit> InvertedIndexShard::Search(const std::vector<std::string>& terms,
                                                  size_t k) const {
  if (terms.empty()) {
    return {};
  }
  // Gather posting lists; an absent term makes the conjunction empty.
  std::vector<const std::vector<Posting>*> lists;
  lists.reserve(terms.size());
  for (const std::string& term : terms) {
    const std::vector<Posting>* list = Postings(term);
    if (list == nullptr || list->empty()) {
      return {};
    }
    lists.push_back(list);
  }
  // Intersect starting from the rarest list. Seeds ascend, so each other list is
  // searched only past where the previous seed was found.
  std::sort(lists.begin(), lists.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });
  struct Match {
    double score;
    int32_t doc;
  };
  std::vector<Match> matches;
  std::vector<std::vector<Posting>::const_iterator> cursors;
  for (const auto* list : lists) {
    cursors.push_back(list->begin());
  }
  for (const Posting& seed : *lists[0]) {
    double score = seed.tf;
    bool all = true;
    for (size_t i = 1; i < lists.size(); ++i) {
      auto it = std::lower_bound(cursors[i], lists[i]->end(), seed.doc,
                                 [](const Posting& p, int32_t doc) { return p.doc < doc; });
      cursors[i] = it;
      if (it == lists[i]->end() || it->doc != seed.doc) {
        all = false;
        break;
      }
      score += it->tf;
    }
    if (all) {
      matches.push_back(Match{score, seed.doc});
    }
  }
  size_t top = std::min(k, matches.size());
  std::partial_sort(matches.begin(), matches.begin() + static_cast<std::ptrdiff_t>(top),
                    matches.end(), [this](const Match& a, const Match& b) {
                      if (a.score != b.score) {
                        return a.score > b.score;
                      }
                      return doc_ids_[static_cast<size_t>(a.doc)] <
                             doc_ids_[static_cast<size_t>(b.doc)];
                    });
  std::vector<SearchHit> hits;
  hits.reserve(top);
  for (size_t i = 0; i < top; ++i) {
    auto doc = static_cast<size_t>(matches[i].doc);
    hits.push_back(SearchHit{doc_ids_[doc], matches[i].score, titles_[doc]});
  }
  return hits;
}

int64_t InvertedIndexShard::CandidatePostings(const std::vector<std::string>& terms) const {
  int64_t total = 0;
  for (const std::string& term : terms) {
    if (const std::vector<Posting>* list = Postings(term)) {
      total += static_cast<int64_t>(list->size());
    }
  }
  return total;
}

std::string VocabularyWord(int64_t rank) {
  return StrFormat("kw%lld", static_cast<long long>(rank));
}

std::vector<ShardPtr> BuildShardedCorpus(const CorpusConfig& config, int shard_count) {
  std::vector<std::string> words;
  words.reserve(static_cast<size_t>(config.vocabulary));
  for (int64_t rank = 0; rank < config.vocabulary; ++rank) {
    words.push_back(VocabularyWord(rank));
  }
  std::vector<std::shared_ptr<InvertedIndexShard>> shards;
  shards.reserve(static_cast<size_t>(shard_count));
  for (int i = 0; i < shard_count; ++i) {
    auto shard = std::make_shared<InvertedIndexShard>(i);
    for (const std::string& word : words) {
      shard->Intern(word);  // Term id == rank.
    }
    shards.push_back(std::move(shard));
  }
  Rng rng(config.seed);
  ZipfDistribution zipf(config.vocabulary, config.term_zipf_skew);
  std::vector<InvertedIndexShard::TermId> terms;
  for (int64_t id = 0; id < config.doc_count; ++id) {
    // The draw order fixes the corpus: the second title word is drawn first.
    const std::string& second = words[static_cast<size_t>(zipf.Sample(&rng))];
    const std::string& first = words[static_cast<size_t>(zipf.Sample(&rng))];
    std::string title = "Document ";
    title.append(std::to_string(id)).append(" (").append(first).append(" ").append(second);
    title.append(")");
    int64_t count = rng.UniformInt(config.min_terms, config.max_terms);
    terms.clear();
    for (int64_t t = 0; t < count; ++t) {
      terms.push_back(static_cast<InvertedIndexShard::TermId>(zipf.Sample(&rng)));
    }
    // Random distribution of documents to shards (§3.2).
    auto shard = static_cast<size_t>(rng.UniformInt(0, shard_count - 1));
    shards[shard]->AddDocument(id, std::move(title), terms);
  }
  std::vector<ShardPtr> out;
  out.reserve(shards.size());
  for (auto& shard : shards) {
    out.push_back(std::move(shard));
  }
  return out;
}

std::vector<std::string> SampleQueryTerms(const CorpusConfig& config, Rng* rng, int terms) {
  ZipfDistribution zipf(config.vocabulary, config.term_zipf_skew);
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(terms));
  for (int i = 0; i < terms; ++i) {
    out.push_back(VocabularyWord(zipf.Sample(rng)));
  }
  return out;
}

}  // namespace sns

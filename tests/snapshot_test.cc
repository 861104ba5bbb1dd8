/// \file snapshot_test.cc
/// \brief Tests for the `snapshot::` subsystem: round-trip fidelity
/// (Freeze → Write → Read is bit-identical on every CSR array, in both
/// mmap and copy load modes), corruption rejection (truncation, bad
/// magic, future versions, flipped payload bytes, hostile section
/// tables — each a clean `Status`, never UB), cache generation stamps,
/// and hot republish into a live `serve::Server` (the race case is
/// meant to run under ThreadSanitizer — `ci.sh tsan` builds this suite
/// with `-fsanitize=thread`).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/testbed.h"
#include "common/hash.h"
#include "graph/csr.h"
#include "serve/expansion_cache.h"
#include "serve/server.h"
#include "snapshot/format.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "wiki/dump.h"
#include "wiki/knowledge_base.h"
#include "wiki/synthetic.h"

namespace wqe::snapshot {
namespace {

// ------------------------------------------------------------- helpers

/// A per-test scratch path under gtest's temp dir; tests overwrite it
/// freely and never depend on contents across tests.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "wqe_snapshot_" + name + ".bin";
}

wiki::KnowledgeBase SyntheticKb(uint64_t seed, size_t num_domains) {
  wiki::SyntheticWikipediaOptions options;
  options.seed = seed;
  options.num_domains = num_domains;
  auto generated = wiki::GenerateSyntheticWikipedia(options);
  EXPECT_TRUE(generated.ok()) << generated.status();
  return std::move(generated->kb);
}

std::vector<std::byte> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<char> chars((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(chars.size());
  std::memcpy(bytes.data(), chars.data(), chars.size());
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

template <typename T>
void ExpectSpanEq(std::span<const T> expected, std::span<const T> actual,
                  const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  if (!expected.empty()) {
    EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                          expected.size() * sizeof(T)),
              0)
        << what << " differs byte-wise";
  }
}

/// Every flat CSR array byte-identical — the tentpole's core contract.
void ExpectSectionsBitIdentical(const graph::CsrSections& expected,
                                const graph::CsrSections& actual) {
  ExpectSpanEq(expected.kinds, actual.kinds, "kinds");
  ExpectSpanEq(expected.redirect_target, actual.redirect_target,
               "redirect_target");
  ExpectSpanEq(expected.out_offsets, actual.out_offsets, "out_offsets");
  ExpectSpanEq(expected.out_targets, actual.out_targets, "out_targets");
  ExpectSpanEq(expected.out_kinds, actual.out_kinds, "out_kinds");
  ExpectSpanEq(expected.in_offsets, actual.in_offsets, "in_offsets");
  ExpectSpanEq(expected.in_sources, actual.in_sources, "in_sources");
  ExpectSpanEq(expected.in_kinds, actual.in_kinds, "in_kinds");
  ExpectSpanEq(expected.und_offsets, actual.und_offsets, "und_offsets");
  ExpectSpanEq(expected.und_neighbors, actual.und_neighbors,
               "und_neighbors");
  ExpectSpanEq(expected.und_mult, actual.und_mult, "und_mult");
  EXPECT_EQ(expected.edge_kind_counts, actual.edge_kind_counts);
  EXPECT_EQ(expected.node_kind_counts, actual.node_kind_counts);
}

// ----------------------------------------------------------- round trip

TEST(SnapshotRoundTripTest, BitIdenticalAcrossSeedsAndLoadModes) {
  struct Config {
    uint64_t seed;
    size_t num_domains;
  };
  const Config configs[] = {{42, 6}, {7, 10}, {123, 16}};
  for (const Config& config : configs) {
    SCOPED_TRACE("seed=" + std::to_string(config.seed) +
                 " domains=" + std::to_string(config.num_domains));
    wiki::KnowledgeBase kb = SyntheticKb(config.seed, config.num_domains);
    kb.Freeze();
    const std::string path = TempPath("roundtrip");
    ASSERT_TRUE(WriteSnapshot(kb, path).ok());

    for (LoadMode mode : {LoadMode::kMmap, LoadMode::kCopy}) {
      SCOPED_TRACE(mode == LoadMode::kMmap ? "mmap" : "copy");
      ReadOptions options;
      options.mode = mode;
      options.verify_invariants = true;  // full CheckInvariants on load
      auto loaded = LoadSnapshot(path, options);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_TRUE(loaded->frozen());

      ExpectSectionsBitIdentical(kb.csr().Sections(),
                                 loaded->csr().Sections());
      EXPECT_TRUE(loaded->csr().CheckInvariants().ok());
      EXPECT_TRUE(loaded->Validate().ok());

      EXPECT_EQ(loaded->num_articles(), kb.num_articles());
      EXPECT_EQ(loaded->num_redirects(), kb.num_redirects());
      EXPECT_EQ(loaded->num_categories(), kb.num_categories());
      const uint32_t n = kb.csr().num_nodes();
      ASSERT_EQ(loaded->csr().num_nodes(), n);
      for (uint32_t u = 0; u < n; ++u) {
        ASSERT_EQ(loaded->title(u), kb.title(u)) << "node " << u;
        ASSERT_EQ(loaded->display_title(u), kb.display_title(u))
            << "node " << u;
        // A loaded KB is the same object as the frozen one that wrote it:
        // every structural lookup answers identically, order included.
        ASSERT_EQ(loaded->IsRedirect(u), kb.IsRedirect(u)) << "node " << u;
        ASSERT_EQ(loaded->ResolveRedirect(u), kb.ResolveRedirect(u))
            << "node " << u;
        ASSERT_EQ(loaded->RedirectsOf(u), kb.RedirectsOf(u)) << "node " << u;
        ASSERT_EQ(loaded->CategoriesOf(u), kb.CategoriesOf(u))
            << "node " << u;
        ASSERT_EQ(loaded->LinkedFrom(u), kb.LinkedFrom(u)) << "node " << u;
        ASSERT_EQ(loaded->LinkingTo(u), kb.LinkingTo(u)) << "node " << u;
      }
      // The rebuilt title index resolves exactly like the original's.
      for (uint32_t u = 0; u < n; u += 7) {
        EXPECT_EQ(loaded->FindArticle(kb.title(u)),
                  kb.FindArticle(kb.title(u)))
            << "node " << u;
      }
    }
  }
}

TEST(SnapshotRoundTripTest, DumpOfLoadedKbMatchesBuiltKb) {
  // WriteDump reads the CSR, which a loaded KB has too: the dump of the
  // reloaded snapshot is the dump of the KB that wrote it, byte for byte.
  wiki::KnowledgeBase kb = SyntheticKb(42, 4);
  kb.Freeze();
  const std::string path = TempPath("dump");
  ASSERT_TRUE(WriteSnapshot(kb, path).ok());
  const std::string expected = wiki::WriteDump(kb);
  ASSERT_GT(expected.size(), 10000u);
  for (LoadMode mode : {LoadMode::kMmap, LoadMode::kCopy}) {
    SCOPED_TRACE(mode == LoadMode::kMmap ? "mmap" : "copy");
    ReadOptions options;
    options.mode = mode;
    auto loaded = LoadSnapshot(path, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const std::string actual = wiki::WriteDump(*loaded);
    EXPECT_TRUE(actual == expected)
        << "dump of the loaded KB is " << actual.size() << " bytes, "
        << "dump of the built KB " << expected.size() << " bytes";
  }
}

TEST(SnapshotRoundTripTest, WriterRequiresFrozenKb) {
  wiki::KnowledgeBase kb = SyntheticKb(42, 4);
  Status status = WriteSnapshot(kb, TempPath("unfrozen"));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotRoundTripTest, ReaderInfoDescribesEverySection) {
  wiki::KnowledgeBase kb = SyntheticKb(42, 4);
  kb.Freeze();
  const std::string path = TempPath("info");
  ASSERT_TRUE(WriteSnapshot(kb, path).ok());

  auto reader = Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const SnapshotInfo& info = reader->info();
  EXPECT_EQ(info.version, kFormatVersion);
  EXPECT_EQ(info.num_nodes, kb.csr().num_nodes());
  EXPECT_EQ(info.num_edges, kb.csr().num_edges());
  EXPECT_EQ(info.file_size, ReadFileBytes(path).size());
  ASSERT_EQ(info.sections.size(), size_t{kNumSections});
  bool seen[kNumSections] = {};
  for (const SectionInfo& section : info.sections) {
    const auto index = static_cast<size_t>(section.id);
    ASSERT_LT(index, size_t{kNumSections});
    EXPECT_FALSE(seen[index]);
    seen[index] = true;
    EXPECT_STREQ(section.name, SectionName(section.id));
    EXPECT_EQ(section.offset % kSectionAlignment, 0u) << section.name;
    EXPECT_EQ(section.count * section.elem_size, section.size_bytes)
        << section.name;
    EXPECT_LE(section.offset + section.size_bytes, info.file_size)
        << section.name;
  }
}

TEST(SnapshotRoundTripTest, EngineOverLoadedSnapshotAnswersIdentically) {
  // An engine served from the mmap'd snapshot must expand exactly like
  // the engine that built the graph in-process.
  api::TestbedOptions options;
  options.wiki.num_domains = 8;
  options.track.num_topics = 3;
  auto bed = api::Testbed::Build(options);
  ASSERT_TRUE(bed.ok()) << bed.status();

  const std::string path = TempPath("engine");
  ASSERT_TRUE(WriteSnapshot((*bed)->kb(), path).ok());
  ReadOptions read_options;
  read_options.mode = LoadMode::kMmap;
  auto loaded = LoadSnapshot(path, read_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  auto engine = api::Engine::Build(std::move(*loaded), options.engine);
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (size_t topic = 0; topic < (*bed)->num_topics(); ++topic) {
    api::ExpandRequest request;
    request.keywords = (*bed)->topic(topic).keywords;
    auto expected = (*bed)->engine().Expand(request);
    auto actual = (*engine)->Expand(request);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(actual->query_articles, expected->query_articles);
    EXPECT_EQ(actual->feature_articles, expected->feature_articles);
    EXPECT_EQ(actual->titles, expected->titles);
  }
}

// ----------------------------------------------------------- corruption

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  /// One valid snapshot, built once; each case mutates a fresh copy of
  /// its bytes.
  static void SetUpTestSuite() {
    wiki::KnowledgeBase kb = SyntheticKb(42, 6);
    kb.Freeze();
    path_ = new std::string(TempPath("corruption"));
    ASSERT_TRUE(WriteSnapshot(kb, *path_).ok());
    valid_ = new std::vector<std::byte>(ReadFileBytes(*path_));
    ASSERT_GE(valid_->size(), sizeof(FileHeader));
    auto reader = Reader::Open(*path_);
    ASSERT_TRUE(reader.ok()) << reader.status();
    info_ = new SnapshotInfo(reader->info());
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    delete valid_;
    delete info_;
    path_ = nullptr;
    valid_ = nullptr;
    info_ = nullptr;
  }

  /// Writes `bytes` over the snapshot path and asserts both load modes
  /// reject it with a ParseError mentioning `substring` — and that
  /// rejection is a Status, not a crash (the suite runs under ASan).
  void ExpectRejected(const std::vector<std::byte>& bytes,
                      const std::string& substring,
                      ReadOptions options = {}) {
    WriteFileBytes(*path_, bytes);
    for (LoadMode mode : {LoadMode::kMmap, LoadMode::kCopy}) {
      SCOPED_TRACE(mode == LoadMode::kMmap ? "mmap" : "copy");
      options.mode = mode;
      auto reader = Reader::Open(*path_, options);
      ASSERT_FALSE(reader.ok()) << "corrupt file was accepted";
      EXPECT_EQ(reader.status().code(), StatusCode::kParseError)
          << reader.status();
      EXPECT_NE(reader.status().message().find(substring),
                std::string::npos)
          << reader.status();
    }
  }

  static void Poke32(std::vector<std::byte>* bytes, size_t offset,
                     uint32_t value) {
    std::memcpy(bytes->data() + offset, &value, sizeof(value));
  }
  static void Poke64(std::vector<std::byte>* bytes, size_t offset,
                     uint64_t value) {
    std::memcpy(bytes->data() + offset, &value, sizeof(value));
  }

  static size_t EntryOffset(size_t index) {
    return sizeof(FileHeader) + index * sizeof(SectionEntry);
  }

  /// Finds a section with a non-empty payload to poke bytes into.
  const SectionInfo& NonEmptySection() const {
    for (const SectionInfo& section : info_->sections) {
      if (section.size_bytes > 0 && section.id != SectionId::kMeta) {
        return section;
      }
    }
    ADD_FAILURE() << "no non-empty section";
    return info_->sections.front();
  }

  static std::string* path_;
  static std::vector<std::byte>* valid_;
  static SnapshotInfo* info_;
};

std::string* SnapshotCorruptionTest::path_ = nullptr;
std::vector<std::byte>* SnapshotCorruptionTest::valid_ = nullptr;
SnapshotInfo* SnapshotCorruptionTest::info_ = nullptr;

TEST_F(SnapshotCorruptionTest, EmptyFile) {
  ExpectRejected({}, "truncated header");
}

TEST_F(SnapshotCorruptionTest, TruncatedHeader) {
  std::vector<std::byte> bytes(valid_->begin(), valid_->begin() + 17);
  ExpectRejected(bytes, "truncated header");
}

TEST_F(SnapshotCorruptionTest, TruncatedPayload) {
  std::vector<std::byte> bytes(valid_->begin(), valid_->end() - 9);
  ExpectRejected(bytes, "does not match actual size");
}

TEST_F(SnapshotCorruptionTest, BadMagic) {
  std::vector<std::byte> bytes = *valid_;
  bytes[0] ^= std::byte{0xFF};
  ExpectRejected(bytes, "bad magic");
}

TEST_F(SnapshotCorruptionTest, FutureVersionRefused) {
  std::vector<std::byte> bytes = *valid_;
  Poke32(&bytes, offsetof(FileHeader, version), kFormatVersion + 1);
  // Keep the header self-consistent so the version check itself — not
  // the checksum guard — is what rejects the file.
  Poke64(&bytes, offsetof(FileHeader, header_checksum),
         HashBytes(bytes.data(), offsetof(FileHeader, header_checksum)));
  ExpectRejected(bytes, "newer than the supported version");
}

TEST_F(SnapshotCorruptionTest, HeaderBitFlip) {
  std::vector<std::byte> bytes = *valid_;
  bytes[offsetof(FileHeader, file_checksum)] ^= std::byte{0x01};
  ExpectRejected(bytes, "header checksum mismatch");
}

TEST_F(SnapshotCorruptionTest, PayloadBitFlip) {
  const SectionInfo& section = NonEmptySection();
  std::vector<std::byte> bytes = *valid_;
  bytes[section.offset + section.size_bytes / 2] ^= std::byte{0x20};
  ExpectRejected(bytes, "checksum mismatch");
}

TEST_F(SnapshotCorruptionTest, ShapeChecksHoldWithoutChecksums) {
  // verify_checksums=false must still never yield a structurally
  // invalid graph: break out_offsets' monotonicity and load unchecked.
  size_t out_offsets_at = 0;
  for (const SectionInfo& section : info_->sections) {
    if (section.id == SectionId::kOutOffsets) out_offsets_at = section.offset;
  }
  ASSERT_GT(out_offsets_at, 0u);
  std::vector<std::byte> bytes = *valid_;
  Poke64(&bytes, out_offsets_at + sizeof(uint64_t), uint64_t{1} << 40);
  ReadOptions options;
  options.verify_checksums = false;
  ExpectRejected(bytes, "out_offsets", options);
}

TEST_F(SnapshotCorruptionTest, EntityCountsMustMatchGraph) {
  // The meta section's entity counts are untrusted: a wrapping sum, a
  // split that disagrees with the redirect table, or counts edited
  // together with the cached node-kind count must not load, even with
  // checksums off.  The section table is intact, so `Open` accepts the
  // file and `Load` is what rejects it.
  size_t meta_at = 0;
  for (const SectionInfo& section : info_->sections) {
    if (section.id == SectionId::kMeta) meta_at = section.offset;
  }
  ASSERT_GT(meta_at, 0u);
  auto meta_slot = [&](size_t slot) {
    uint64_t value = 0;
    std::memcpy(&value, valid_->data() + meta_at + slot * sizeof(uint64_t),
                sizeof(value));
    return value;
  };
  const uint64_t article_nodes = meta_slot(kMetaNodeKindCount0);
  const uint64_t num_articles = meta_slot(kMetaNumArticles);
  const struct {
    uint64_t num_articles;
    uint64_t num_redirects;
    uint64_t node_kind_count0;
  } edits[] = {
      {UINT64_MAX, article_nodes + 1, article_nodes},
      {0, article_nodes, article_nodes},
      // One extra article on both sides of the old sum check.
      {num_articles + 1, meta_slot(kMetaNumRedirects), article_nodes + 1},
  };
  for (const auto& edit : edits) {
    SCOPED_TRACE("articles=" + std::to_string(edit.num_articles) +
                 " redirects=" + std::to_string(edit.num_redirects) +
                 " node_kind_count0=" + std::to_string(edit.node_kind_count0));
    std::vector<std::byte> bytes = *valid_;
    Poke64(&bytes, meta_at + kMetaNumArticles * sizeof(uint64_t),
           edit.num_articles);
    Poke64(&bytes, meta_at + kMetaNumRedirects * sizeof(uint64_t),
           edit.num_redirects);
    Poke64(&bytes, meta_at + kMetaNodeKindCount0 * sizeof(uint64_t),
           edit.node_kind_count0);
    WriteFileBytes(*path_, bytes);
    for (LoadMode mode : {LoadMode::kMmap, LoadMode::kCopy}) {
      SCOPED_TRACE(mode == LoadMode::kMmap ? "mmap" : "copy");
      ReadOptions options;
      options.mode = mode;
      options.verify_checksums = false;
      auto reader = Reader::Open(*path_, options);
      ASSERT_TRUE(reader.ok()) << reader.status();
      auto loaded = reader->Load();
      ASSERT_FALSE(loaded.ok()) << "corrupt counts were accepted";
      EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
          << loaded.status();
      EXPECT_NE(loaded.status().message().find("entity counts"),
                std::string::npos)
          << loaded.status();
    }
  }
}

TEST_F(SnapshotCorruptionTest, SectionTableOffsetOutOfBounds) {
  std::vector<std::byte> bytes = *valid_;
  Poke64(&bytes, EntryOffset(3) + offsetof(SectionEntry, offset),
         uint64_t{1} << 60);
  ExpectRejected(bytes, "extends past end of file");
}

TEST_F(SnapshotCorruptionTest, SectionTableMisalignedOffset) {
  std::vector<std::byte> bytes = *valid_;
  Poke64(&bytes, EntryOffset(3) + offsetof(SectionEntry, offset),
         sizeof(FileHeader) + 4);
  ExpectRejected(bytes, "misaligned");
}

TEST_F(SnapshotCorruptionTest, SectionTableUnknownId) {
  std::vector<std::byte> bytes = *valid_;
  Poke32(&bytes, EntryOffset(0) + offsetof(SectionEntry, id), 77);
  ExpectRejected(bytes, "unknown id");
}

TEST_F(SnapshotCorruptionTest, SectionTableDuplicateId) {
  std::vector<std::byte> bytes = *valid_;
  // Clone entry 0 over entry 1 (id and elem_size both, so the duplicate
  // check — not the element-size check — fires).
  std::memcpy(bytes.data() + EntryOffset(1), bytes.data() + EntryOffset(0),
              2 * sizeof(uint32_t));
  ExpectRejected(bytes, "duplicate section");
}

TEST_F(SnapshotCorruptionTest, SectionTableCountSizeDisagree) {
  std::vector<std::byte> bytes = *valid_;
  uint64_t count = 0;
  std::memcpy(&count, bytes.data() + EntryOffset(4) +
                          offsetof(SectionEntry, count),
              sizeof(count));
  Poke64(&bytes, EntryOffset(4) + offsetof(SectionEntry, count), count + 1);
  ExpectRejected(bytes, "count/size disagree");
}

TEST_F(SnapshotCorruptionTest, ValidBytesStillLoadAfterSuite) {
  // Guard against helper bugs: the pristine byte image itself loads.
  WriteFileBytes(*path_, *valid_);
  auto loaded = LoadSnapshot(*path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->Validate().ok());
}

// ---------------------------------------------------- cache generations

TEST(SnapshotCacheGenerationTest, StaleGenerationDropsEntry) {
  serve::ExpansionCache cache;
  serve::ExpansionCache::Key key{"anarchist punk", "cycle", {}};
  api::ExpandResponse response;
  response.expander = "cycle";
  response.titles = {"a", "b"};

  cache.Put(key, response, /*generation=*/1);
  auto hit = cache.Get(key, /*generation=*/1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->titles, response.titles);
  EXPECT_EQ(cache.stats().stale_drops, 0u);

  // A republished graph (generation 2) must not see generation-1 work.
  EXPECT_EQ(cache.Get(key, /*generation=*/2), nullptr);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
  EXPECT_EQ(cache.size(), 0u);  // dropped on sight, not just skipped

  // Re-stamping under the new generation works as usual.
  cache.Put(key, response, /*generation=*/2);
  EXPECT_NE(cache.Get(key, /*generation=*/2), nullptr);
  EXPECT_TRUE(cache.CheckShardInvariants().ok());
}

// -------------------------------------------------------- hot republish

api::TestbedOptions RepublishOptions() {
  api::TestbedOptions options;
  options.wiki.num_domains = 8;
  options.track.num_topics = 3;
  return options;
}

/// Loads a publishable KB from a snapshot of the engine's own graph —
/// identical content, distinct storage (served straight off the mmap).
wiki::KnowledgeBase ReloadedKb(const api::Testbed& bed,
                               const std::string& path) {
  EXPECT_TRUE(WriteSnapshot(bed.kb(), path).ok());
  auto loaded = LoadSnapshot(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  return std::move(*loaded);
}

TEST(SnapshotRepublishTest, PublishBumpsGenerationAndInvalidatesCache) {
  auto bed = api::Testbed::Build(RepublishOptions());
  ASSERT_TRUE(bed.ok()) << bed.status();
  api::Engine& engine = (*bed)->engine();
  EXPECT_EQ(engine.snapshot_generation(), 1u);

  serve::ServerOptions serving;
  serving.num_threads = 2;
  serve::Server server(engine, serving);

  api::ExpandRequest request;
  request.keywords = (*bed)->topic(0).keywords;
  auto first = server.SubmitExpand(request).get();
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = server.SubmitExpand(request).get();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(server.cache()->stats().hits, 1u);
  EXPECT_EQ(server.cache()->stats().stale_drops, 0u);

  const std::string path = TempPath("republish");
  ASSERT_TRUE(engine.PublishSnapshot(ReloadedKb(**bed, path)).ok());
  EXPECT_EQ(engine.snapshot_generation(), 2u);

  // Same request after the publish: the generation-1 entry is dropped
  // as stale, recomputed on the new snapshot, and — same graph content
  // — comes back bit-identical.
  auto third = server.SubmitExpand(request).get();
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(server.cache()->stats().stale_drops, 1u);
  EXPECT_EQ(server.cache()->stats().hits, 1u);  // no new hits
  EXPECT_EQ(third->query_articles, first->query_articles);
  EXPECT_EQ(third->feature_articles, first->feature_articles);
  EXPECT_EQ(third->titles, first->titles);

  // And the fresh entry serves generation-2 lookups again.
  auto fourth = server.SubmitExpand(request).get();
  ASSERT_TRUE(fourth.ok()) << fourth.status();
  EXPECT_EQ(server.cache()->stats().hits, 2u);
}

TEST(SnapshotRepublishTest, LiveTrafficSurvivesRepublishTsan) {
  // Worker threads hammer the server while the owner republishes the
  // graph three times.  The published snapshots carry identical content
  // (round-tripped through the on-disk format), so every response —
  // whichever epoch served it — must be bit-identical to the reference;
  // any torn state shows up as a wrong answer here or as a TSan report
  // in the sanitizer lane.
  auto bed = api::Testbed::Build(RepublishOptions());
  ASSERT_TRUE(bed.ok()) << bed.status();
  api::Engine& engine = (*bed)->engine();

  const size_t num_topics = (*bed)->num_topics();
  std::vector<api::ExpandResponse> reference;
  for (size_t topic = 0; topic < num_topics; ++topic) {
    api::ExpandRequest request;
    request.keywords = (*bed)->topic(topic).keywords;
    auto response = engine.Expand(request);
    ASSERT_TRUE(response.ok()) << response.status();
    reference.push_back(*std::move(response));
  }

  serve::ServerOptions serving;
  serving.num_threads = 3;
  serve::Server server(engine, serving);
  const std::string path = TempPath("live");

  std::atomic<bool> stop{false};
  std::atomic<size_t> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t topic = i++ % num_topics;
        api::ExpandRequest request;
        request.keywords = (*bed)->topic(topic).keywords;
        auto response = server.SubmitExpand(request).get();
        ASSERT_TRUE(response.ok()) << response.status();
        EXPECT_EQ(response->query_articles,
                  reference[topic].query_articles);
        EXPECT_EQ(response->feature_articles,
                  reference[topic].feature_articles);
        EXPECT_EQ(response->titles, reference[topic].titles);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int publish = 0; publish < 3; ++publish) {
    // Let some traffic land on the current epoch before swapping.
    size_t target = served.load() + 8;
    while (served.load() < target) std::this_thread::yield();
    ASSERT_TRUE(engine.PublishSnapshot(ReloadedKb(**bed, path)).ok());
  }
  size_t target = served.load() + 8;
  while (served.load() < target) std::this_thread::yield();
  stop.store(true);
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(engine.snapshot_generation(), 4u);  // 1 from Build + 3
  EXPECT_GE(server.cache()->stats().stale_drops, 1u);
  EXPECT_TRUE(server.cache()->CheckShardInvariants().ok());
  // The last published snapshot is live and answers directly too.
  api::ExpandRequest request;
  request.keywords = (*bed)->topic(0).keywords;
  auto response = engine.Expand(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->titles, reference[0].titles);
}

}  // namespace
}  // namespace wqe::snapshot

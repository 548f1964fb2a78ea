/**
 * @file
 * Remaining coverage: logging helpers, request-type names, config
 * presets, and factory parameter plumbing.
 */

#include <gtest/gtest.h>

#include "mem/request.hh"
#include "prefetch/ghb.hh"
#include "prefetch/solihin.hh"
#include "prefetch/tcp.hh"
#include "sim/prefetcher_factory.hh"
#include "util/logging.hh"

using namespace ebcp;

TEST(Logging, FormatConcatenates)
{
    EXPECT_EQ(logFormat("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(logFormat(), "");
}

TEST(Logging, PanicIfAborts)
{
    EXPECT_DEATH({ panic_if(true, "boom ", 42); }, "boom 42");
}

TEST(Logging, FatalIfExits)
{
    EXPECT_EXIT({ fatal_if(true, "bad config"); },
                ::testing::ExitedWithCode(1), "bad config");
}

TEST(Logging, ConditionsPassWhenFalse)
{
    panic_if(false, "never");
    fatal_if(false, "never");
    SUCCEED();
}

TEST(RequestNames, AllTypesNamed)
{
    for (MemReqType t :
         {MemReqType::DemandInst, MemReqType::DemandLoad,
          MemReqType::StoreWrite, MemReqType::Prefetch,
          MemReqType::TableRead, MemReqType::TableWrite})
        EXPECT_STRNE(memReqTypeName(t), "unknown");
}

TEST(Presets, GhbSizesMatchPaper)
{
    // GHB small ~256KB (16K+16K entries), large ~4MB (256K+256K).
    EXPECT_EQ(GhbConfig::small().indexEntries, 16u * 1024u);
    EXPECT_EQ(GhbConfig::small().ghbEntries, 16u * 1024u);
    EXPECT_EQ(GhbConfig::large().indexEntries, 256u * 1024u);
    EXPECT_EQ(GhbConfig::large().ghbEntries, 256u * 1024u);
    EXPECT_EQ(GhbConfig::small().depth, 6u);
}

TEST(Presets, SolihinConfigsMatchPaper)
{
    SolihinConfig a = SolihinConfig::depth3width2();
    EXPECT_EQ(a.depth, 3u);
    EXPECT_EQ(a.width, 2u);
    SolihinConfig b = SolihinConfig::depth6width1();
    EXPECT_EQ(b.depth, 6u);
    EXPECT_EQ(b.width, 1u);
    EXPECT_EQ(a.tableEntries, 1ULL << 20); // 1M entries
}

TEST(Presets, TcpThtMatchesL1Sets)
{
    // "the THT contains 128 entries, matching the same number of sets
    // in the L1 caches."
    EXPECT_EQ(TcpConfig::small().thtEntries, 128u);
    EXPECT_EQ(TcpConfig::small().l1Sets, 128u);
}

TEST(Factory, EbcpParamsAreForwarded)
{
    PrefetcherParams p;
    p.name = "ebcp";
    p.ebcp.prefetchDegree = 13;
    p.ebcp.tableEntries = 1 << 12;
    p.ebcp.numCoreStates = 3;
    auto pf = createPrefetcher(p);
    auto *e = dynamic_cast<EpochBasedPrefetcher *>(pf.get());
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->config().prefetchDegree, 13u);
    EXPECT_EQ(e->config().tableEntries, 1u << 12);
    EXPECT_EQ(e->config().numCoreStates, 3u);
    EXPECT_EQ(e->table().config().addrsPerEntry, 13u);
}

TEST(Factory, NamedVariantsKeepOwnStatsNames)
{
    PrefetcherParams p;
    p.name = "ghb-large";
    auto pf = createPrefetcher(p);
    EXPECT_EQ(pf->name(), "ghb_large");
    p.name = "solihin-3-2";
    EXPECT_EQ(createPrefetcher(p)->name(), "solihin_3_2");
}

TEST(Factory, ListsFifteenSchemes)
{
    EXPECT_EQ(prefetcherNames().size(), 15u);
}

TEST(Factory, EveryListedSchemeConstructs)
{
    // The registry is the single source of truth for docs and CLI
    // help; every name it advertises must actually build with the
    // default parameters.
    for (const std::string &n : prefetcherNames()) {
        PrefetcherParams p;
        p.name = n;
        auto pf = tryCreatePrefetcher(p);
        EXPECT_TRUE(pf.ok()) << n << ": " << pf.status().toString();
    }
}

TEST(Factory, AcceptsOnlyListedSchemes)
{
    // ...and it is the whole vocabulary: the bare family names of the
    // fixed GHB and TCP presets are not schemes of their own.
    for (const char *n : {"ghb", "tcp"}) {
        PrefetcherParams p;
        p.name = n;
        EXPECT_EQ(tryCreatePrefetcher(p).status().code(),
                  StatusCode::NotFound)
            << n;
    }
}

#include <gtest/gtest.h>

#include "sniffer/log_io.h"

#include "sniffer/mapper.h"

namespace cacheportal::sniffer {
namespace {

TEST(LogFieldEscapeTest, RoundTripsControlCharacters) {
  for (const std::string original :
       {std::string("plain"), std::string("with\ttab"),
        std::string("with\nnewline"), std::string("100%"),
        std::string("%09 literal"), std::string("\t\n\r%"),
        std::string("")}) {
    EXPECT_EQ(UnescapeLogField(EscapeLogField(original)), original);
  }
}

TEST(LogFieldEscapeTest, EscapedFormHasNoSeparators) {
  std::string escaped = EscapeLogField("a\tb\nc");
  EXPECT_EQ(escaped.find('\t'), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
}

TEST(RequestLogIoTest, RoundTrip) {
  RequestLog log;
  uint64_t a = log.Open("cars", "/cars?model=A", "session=s1", "qty=2",
                        "shop/cars?model=A##", 100);
  log.Close(a, 250);
  log.Open("weird\tname", "/p?x=a b", "", "", "key\nwith newline", 300);

  std::string text = SerializeRequestLog(log.entries());
  auto parsed = ParseRequestLog(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].id, 1u);
  EXPECT_EQ((*parsed)[0].servlet_name, "cars");
  EXPECT_EQ((*parsed)[0].page_key, "shop/cars?model=A##");
  EXPECT_EQ((*parsed)[0].receive_time, 100);
  EXPECT_EQ((*parsed)[0].delivery_time, 250);
  EXPECT_TRUE((*parsed)[0].completed());
  EXPECT_EQ((*parsed)[1].servlet_name, "weird\tname");
  EXPECT_EQ((*parsed)[1].page_key, "key\nwith newline");
  EXPECT_FALSE((*parsed)[1].completed());
}

TEST(QueryLogIoTest, RoundTrip) {
  QueryLog log;
  log.Append("SELECT * FROM Car WHERE maker = 'O''Brien'", true, 10, 20);
  log.Append("DELETE FROM Car\nWHERE price > 100", false, 30, 35);

  std::string text = SerializeQueryLog(log.entries());
  auto parsed = ParseQueryLog(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].sql, "SELECT * FROM Car WHERE maker = 'O''Brien'");
  EXPECT_TRUE((*parsed)[0].is_select);
  EXPECT_EQ((*parsed)[1].sql, "DELETE FROM Car\nWHERE price > 100");
  EXPECT_FALSE((*parsed)[1].is_select);
  EXPECT_EQ((*parsed)[1].receive_time, 30);
}

TEST(LogIoTest, EmptyLogsSerializeToEmpty) {
  EXPECT_EQ(SerializeRequestLog({}), "");
  EXPECT_EQ(SerializeQueryLog({}), "");
  EXPECT_TRUE(ParseRequestLog("")->empty());
  EXPECT_TRUE(ParseQueryLog("")->empty());
}

TEST(LogIoTest, MalformedLinesRejected) {
  EXPECT_FALSE(ParseRequestLog("garbage line").ok());
  EXPECT_FALSE(ParseRequestLog("Q\t1\tS\t1\t2\tsql").ok());  // Wrong tag.
  EXPECT_FALSE(ParseQueryLog("Q\t1\tX\t1\t2\tsql").ok());    // Bad kind.
  EXPECT_FALSE(ParseQueryLog("Q\t1\tS\t1").ok());            // Short.
}

TEST(LogIoTest, ShippedLogsDriveTheMapper) {
  // The deployment flow of Figure 7: logs produced on the server side,
  // shipped as text, re-materialized on the invalidator machine, joined.
  RequestLog server_requests;
  QueryLog server_queries;
  uint64_t id = server_requests.Open("s", "/p", "", "", "page-key", 100);
  server_queries.Append("SELECT * FROM T", true, 120, 150);
  server_requests.Close(id, 200);

  std::string shipped_requests =
      SerializeRequestLog(server_requests.entries());
  std::string shipped_queries = SerializeQueryLog(server_queries.entries());

  // Invalidator side.
  auto remote_requests = ParseRequestLog(shipped_requests);
  auto remote_queries = ParseQueryLog(shipped_queries);
  ASSERT_TRUE(remote_requests.ok());
  ASSERT_TRUE(remote_queries.ok());

  RequestLog rebuilt_requests;
  for (const RequestLogEntry& e : *remote_requests) {
    uint64_t nid = rebuilt_requests.Open(e.servlet_name, e.request_string,
                                         e.cookie_string, e.post_string,
                                         e.page_key, e.receive_time);
    if (e.completed()) rebuilt_requests.Close(nid, e.delivery_time);
  }
  QueryLog rebuilt_queries;
  for (const QueryLogEntry& e : *remote_queries) {
    rebuilt_queries.Append(e.sql, e.is_select, e.receive_time,
                           e.delivery_time);
  }

  QiUrlMap map;
  RequestToQueryMapper mapper(&rebuilt_requests, &rebuilt_queries, &map);
  EXPECT_EQ(mapper.Run(), 1u);
  EXPECT_EQ(map.PagesForQuery("SELECT * FROM T"),
            std::vector<std::string>{"page-key"});
}

TEST(QiUrlMapTest, EpochCountsRowSetMutationsOnly) {
  QiUrlMap map;
  uint64_t e0 = map.epoch();
  map.Add("SELECT 1", "p1", "/r", 100);
  EXPECT_GT(map.epoch(), e0);  // New row.
  uint64_t e1 = map.epoch();
  map.Add("SELECT 1", "p1", "/r", 999);  // Dedup: timestamp refresh only.
  EXPECT_EQ(map.epoch(), e1);
  EXPECT_EQ(map.RemovePage("absent"), 0u);  // No row removed.
  EXPECT_EQ(map.epoch(), e1);
  EXPECT_EQ(map.RemovePage("p1"), 1u);
  EXPECT_GT(map.epoch(), e1);
}

}  // namespace
}  // namespace cacheportal::sniffer

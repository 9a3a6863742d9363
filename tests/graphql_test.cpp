// Unit tests for the query language: Value, lexer, parser, executor.

#include <gtest/gtest.h>

#include "src/graphql/executor.h"
#include "src/graphql/lexer.h"
#include "src/graphql/parser.h"
#include "src/graphql/value.h"

namespace bladerunner {
namespace {

// ---- Value ----

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(42).is_int());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value(ValueList{}).is_list());
  EXPECT_TRUE(Value(ValueMap{}).is_map());
  EXPECT_TRUE(Value(42).is_number());
  EXPECT_TRUE(Value(3.5).is_number());
}

TEST(ValueTest, AccessorsWithFallbacks) {
  EXPECT_EQ(Value(42).AsInt(), 42);
  EXPECT_EQ(Value("x").AsInt(7), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Value(3).AsDouble(), 3.0);  // int coerces to double
  EXPECT_EQ(Value(2.9).AsInt(), 2);            // double truncates to int
  EXPECT_EQ(Value("hello").AsString(), "hello");
  EXPECT_EQ(Value(1).AsString(), "");
  EXPECT_TRUE(Value(true).AsBool());
  EXPECT_FALSE(Value("x").AsBool(false));
}

TEST(ValueTest, MapAccess) {
  Value v;
  v.Set("a", 1);
  v.Set("b", "two");
  EXPECT_TRUE(v.Has("a"));
  EXPECT_FALSE(v.Has("c"));
  EXPECT_EQ(v.Get("a").AsInt(), 1);
  EXPECT_TRUE(v.Get("missing").is_null());
  EXPECT_EQ(v.Size(), 2u);
}

TEST(ValueTest, ListAccess) {
  Value v;
  v.Append(1);
  v.Append("x");
  EXPECT_EQ(v.Size(), 2u);
  EXPECT_EQ(v.AsList()[0].AsInt(), 1);
}

TEST(ValueTest, Equality) {
  Value a;
  a.Set("k", 1);
  Value b;
  b.Set("k", 1);
  EXPECT_EQ(a, b);
  b.Set("k", 2);
  EXPECT_NE(a, b);
}

TEST(ValueTest, HashFollowsEquality) {
  Value a;
  a.Set("id", 7);
  a.Set("tags", ValueList{Value("x"), Value(1.5)});
  Value b;  // the same fields, set in another order
  b.Set("tags", ValueList{Value("x"), Value(1.5)});
  b.Set("id", 7);
  ASSERT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(Value(0.0).Hash(), Value(-0.0).Hash());

  Value c = a;
  c.Set("seq", 2);
  Value d = a;
  d.Set("seq", 3);
  EXPECT_NE(c.Hash(), d.Hash());
  EXPECT_NE(a.Hash(), c.Hash());
  EXPECT_NE(Value(1).Hash(), Value("1").Hash());
}

TEST(ValueTest, ToJson) {
  Value v;
  v.Set("n", 3);
  v.Set("s", "a\"b");
  v.Set("l", Value(ValueList{Value(1), Value(true), Value(nullptr)}));
  EXPECT_EQ(v.ToJson(), R"({"l":[1,true,null],"n":3,"s":"a\"b"})");
}

TEST(ValueTest, WireSizeGrowsWithContent) {
  Value small;
  small.Set("a", 1);
  Value big;
  big.Set("a", std::string(1000, 'x'));
  EXPECT_GT(big.WireSize(), small.WireSize() + 900);
}

// ---- Lexer ----

TEST(LexerTest, TokenizesBasicQuery) {
  auto tokens = Tokenize("query { user(id: 42) { name } }");
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_TRUE(tokens[0].IsName("query"));
  EXPECT_TRUE(tokens[1].IsPunct('{'));
  EXPECT_TRUE(tokens[2].IsName("user"));
  EXPECT_EQ(tokens.back().type, TokenType::kEndOfInput);
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = Tokenize(R"(-12 3.5 1e3 "he\"llo")");
  EXPECT_EQ(tokens[0].type, TokenType::kInt);
  EXPECT_EQ(tokens[0].value, "-12");
  EXPECT_EQ(tokens[1].type, TokenType::kFloat);
  EXPECT_EQ(tokens[2].type, TokenType::kFloat);
  EXPECT_EQ(tokens[3].type, TokenType::kString);
  EXPECT_EQ(tokens[3].value, "he\"llo");
}

TEST(LexerTest, CommentsAreSkipped) {
  auto tokens = Tokenize("a # comment\n b");
  EXPECT_TRUE(tokens[0].IsName("a"));
  EXPECT_TRUE(tokens[1].IsName("b"));
}

TEST(LexerTest, ErrorOnUnterminatedString) {
  auto tokens = Tokenize("\"oops");
  EXPECT_EQ(tokens[0].type, TokenType::kError);
}

TEST(LexerTest, ErrorOnStrayCharacter) {
  auto tokens = Tokenize("user %");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].type, TokenType::kError);
}

// ---- Parser ----

TEST(ParserTest, ParsesAnonymousQuery) {
  ParseResult result = Parse("{ me { id } }");
  ASSERT_TRUE(result.ok());
  const Operation& op = result.document->Sole();
  EXPECT_EQ(op.type, OperationType::kQuery);
  ASSERT_EQ(op.selections.fields.size(), 1u);
  EXPECT_EQ(op.selections.fields[0].name, "me");
  EXPECT_EQ(op.selections.fields[0].selections.fields[0].name, "id");
}

TEST(ParserTest, ParsesNamedMutationWithArguments) {
  ParseResult result =
      Parse(R"(mutation Post { postComment(video: 7, text: "hi", fast: true) { id } })");
  ASSERT_TRUE(result.ok());
  const Operation& op = result.document->Sole();
  EXPECT_EQ(op.type, OperationType::kMutation);
  EXPECT_EQ(op.name, "Post");
  const Field& f = op.selections.fields[0];
  EXPECT_EQ(f.Arg("video").AsInt(), 7);
  EXPECT_EQ(f.Arg("text").AsString(), "hi");
  EXPECT_TRUE(f.Arg("fast").AsBool());
  EXPECT_TRUE(f.Arg("missing").is_null());
}

TEST(ParserTest, ParsesSubscription) {
  ParseResult result = Parse("subscription { liveVideoComments(videoId: 3) { id } }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.document->Sole().type, OperationType::kSubscription);
}

TEST(ParserTest, ParsesAliases) {
  ParseResult result = Parse("{ short: veryLongFieldName { id } }");
  ASSERT_TRUE(result.ok());
  const Field& f = result.document->Sole().selections.fields[0];
  EXPECT_EQ(f.alias, "short");
  EXPECT_EQ(f.name, "veryLongFieldName");
  EXPECT_EQ(f.ResponseKey(), "short");
}

TEST(ParserTest, ParsesListAndObjectValues) {
  ParseResult result = Parse(R"({ f(ids: [1, 2, 3], opts: { nested: "v", n: 2 }) })");
  ASSERT_TRUE(result.ok());
  const Field& f = result.document->Sole().selections.fields[0];
  EXPECT_EQ(f.Arg("ids").Size(), 3u);
  EXPECT_EQ(f.Arg("ids").AsList()[1].AsInt(), 2);
  EXPECT_EQ(f.Arg("opts").Get("nested").AsString(), "v");
}

TEST(ParserTest, ParsesEnumLiteralsAsStrings) {
  ParseResult result = Parse("{ f(mode: FAST) }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.document->Sole().selections.fields[0].Arg("mode").AsString(), "FAST");
}

TEST(ParserTest, ParsesNullTrueFalse) {
  ParseResult result = Parse("{ f(a: null, b: true, c: false) }");
  ASSERT_TRUE(result.ok());
  const Field& f = result.document->Sole().selections.fields[0];
  EXPECT_TRUE(f.Arg("a").is_null());
  EXPECT_TRUE(f.Arg("b").AsBool());
  EXPECT_FALSE(f.Arg("c").AsBool(true));
}

TEST(ParserTest, MultipleOperations) {
  ParseResult result = Parse("query A { x } mutation B { y }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.document->operations.size(), 2u);
}

TEST(ParserTest, ErrorOnEmptyDocument) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("   # only a comment").ok());
}

TEST(ParserTest, ErrorOnMissingBrace) {
  ParseResult result = Parse("query { user(id: 1) { name }");
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.error.empty());
}

TEST(ParserTest, ErrorOnBadOperationType) {
  EXPECT_FALSE(Parse("frobnicate { x }").ok());
}

TEST(ParserTest, ErrorOnLexError) {
  ParseResult result = Parse("{ f(x: \"unterminated) }");
  EXPECT_FALSE(result.ok());
}

// ---- Executor ----

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_.AddResolver("Query", "answer", [](const ResolveInfo&) { return Value(42); });
    schema_.AddResolver("Query", "viewer", [](const ResolveInfo& info) {
      Value v;
      v.Set("__type", "User");
      v.Set("id", info.ctx.viewer_id);
      v.Set("name", "alice");
      return v;
    });
    schema_.AddResolver("Query", "echo",
                        [](const ResolveInfo& info) { return info.field.Arg("value"); });
    schema_.AddResolver("User", "friends", [](const ResolveInfo&) {
      ValueList friends;
      for (int i = 0; i < 2; ++i) {
        Value f;
        f.Set("__type", "User");
        f.Set("id", 100 + i);
        f.Set("name", "friend" + std::to_string(i));
        friends.push_back(std::move(f));
      }
      return Value(std::move(friends));
    });
    schema_.AddResolver("Query", "costly", [](const ResolveInfo& info) {
      info.ctx.cost.range_reads += 1;
      info.ctx.cost.shards_touched += 5;
      return Value(1);
    });
  }

  ExecResult Run(const std::string& text, int64_t viewer = 7) {
    ExecContext ctx;
    ctx.viewer_id = viewer;
    return schema_.Execute(MustParse(text), ctx);
  }

  Schema schema_;
};

TEST_F(ExecutorTest, ScalarField) {
  ExecResult result = Run("{ answer }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.data.Get("answer").AsInt(), 42);
}

TEST_F(ExecutorTest, NestedSelection) {
  ExecResult result = Run("{ viewer { id name } }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.data.Get("viewer").Get("id").AsInt(), 7);
  EXPECT_EQ(result.data.Get("viewer").Get("name").AsString(), "alice");
}

TEST_F(ExecutorTest, SelectionProjectsOnlyRequestedFields) {
  ExecResult result = Run("{ viewer { id } }");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.data.Get("viewer").Has("id"));
  EXPECT_FALSE(result.data.Get("viewer").Has("name"));
}

TEST_F(ExecutorTest, ListOfObjects) {
  ExecResult result = Run("{ viewer { friends { name } } }");
  ASSERT_TRUE(result.ok());
  const Value& friends = result.data.Get("viewer").Get("friends");
  ASSERT_EQ(friends.Size(), 2u);
  EXPECT_EQ(friends.AsList()[1].Get("name").AsString(), "friend1");
}

TEST_F(ExecutorTest, Alias) {
  ExecResult result = Run("{ a: answer b: answer }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.data.Get("a").AsInt(), 42);
  EXPECT_EQ(result.data.Get("b").AsInt(), 42);
}

TEST_F(ExecutorTest, ArgumentsPassThrough) {
  ExecResult result = Run(R"({ echo(value: "ping") })");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.data.Get("echo").AsString(), "ping");
}

TEST_F(ExecutorTest, UnknownFieldReportsError) {
  ExecResult result = Run("{ nonsense }");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.data.Get("nonsense").is_null());
}

TEST_F(ExecutorTest, CostAccumulates) {
  ExecResult result = Run("{ costly c2: costly }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.cost.range_reads, 2u);
  EXPECT_EQ(result.cost.shards_touched, 10u);
}

TEST_F(ExecutorTest, ScalarWithSelectionSetIsError) {
  ExecResult result = Run("{ answer { sub } }");
  EXPECT_FALSE(result.ok());
}

// Tombstone pages: resolvers that privacy-filter list elements replace the
// content with an untyped {suppressed, indexTime} map (see ResolveComments
// in src/was/resolvers.cpp). Requested fields missing from a tombstone must
// produce per-field errors without poisoning the visible elements.
class TombstoneExecutorTest : public ExecutorTest {
 protected:
  void SetUp() override {
    ExecutorTest::SetUp();
    schema_.AddResolver("Query", "comments", [](const ResolveInfo&) {
      ValueList page;
      Value visible;
      visible.Set("__type", "Comment");
      visible.Set("id", 1);
      visible.Set("text", "hello");
      visible.Set("indexTime", 100);
      page.push_back(std::move(visible));
      Value tombstone;  // untyped: privacy-filtered placeholder
      tombstone.Set("suppressed", true);
      tombstone.Set("indexTime", 200);
      page.push_back(std::move(tombstone));
      return Value(std::move(page));
    });
  }
};

TEST_F(TombstoneExecutorTest, TombstonePageYieldsPerFieldErrors) {
  ExecResult result = Run("{ comments { id text indexTime } }");
  // The tombstone is missing id and text: one error per missing field, and
  // the untyped map reports an empty type name.
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_EQ(result.errors[0], "no resolver and no parent property for .id");
  EXPECT_EQ(result.errors[1], "no resolver and no parent property for .text");

  // The page itself is still usable: both elements present, the visible
  // one complete, the tombstone with nulled content fields but its shared
  // indexTime (pagination watermark) intact.
  const Value& page = result.data.Get("comments");
  ASSERT_EQ(page.Size(), 2u);
  EXPECT_EQ(page.AsList()[0].Get("text").AsString(), "hello");
  EXPECT_TRUE(page.AsList()[1].Get("id").is_null());
  EXPECT_TRUE(page.AsList()[1].Get("text").is_null());
  EXPECT_EQ(page.AsList()[1].Get("indexTime").AsInt(0), 200);
}

TEST_F(TombstoneExecutorTest, TypedElementsUseTypeNameInErrors) {
  // A typed map missing a requested field names its type in the error,
  // distinguishing schema gaps from tombstones.
  ExecResult result = Run("{ comments { author } }");
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_EQ(result.errors[0], "no resolver and no parent property for Comment.author");
  EXPECT_EQ(result.errors[1], "no resolver and no parent property for .author");
}

TEST_F(TombstoneExecutorTest, SelectionAvoidingMissingFieldsIsClean) {
  // Selecting only fields every element carries produces no errors at all:
  // tombstones are not inherently erroneous, only missing-field accesses.
  ExecResult result = Run("{ comments { indexTime } }");
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  ASSERT_EQ(result.data.Get("comments").Size(), 2u);
}

TEST(QueryCostTest, AddCombines) {
  QueryCost a;
  a.point_reads = 1;
  a.range_reads = 2;
  QueryCost b;
  b.point_reads = 3;
  b.writes = 4;
  a.Add(b);
  EXPECT_EQ(a.point_reads, 4u);
  EXPECT_EQ(a.range_reads, 2u);
  EXPECT_EQ(a.writes, 4u);
  EXPECT_EQ(a.TotalReads(), 6u);
}

}  // namespace
}  // namespace bladerunner

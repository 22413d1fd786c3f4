#include "cli/cli.h"

#include <map>
#include <optional>

#include "core/causal_graph.h"
#include "core/engine.h"
#include "core/flatten.h"
#include "datagen/dblp.h"
#include "datagen/natality.h"
#include "relational/parser.h"
#include "relational/storage.h"
#include "server/protocol.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace xplain {
namespace cli {

namespace {

constexpr const char* kUsage = R"usage(usage: xplain <command> [options]

commands:
  gen <natality|dblp|running-example> <dir> [--rows N] [--scale S] [--seed S]
  schema <dir>
  query <dir> --agg "count(*)" [--where "<predicate>"]
  intervene <dir> --phi "<predicate>" [--repair]
  flatten <dir> <out-dir> --fanout N
  ask <dir> --subquery "name|agg|where" ... --expr "q1 / q2"
      [--direction high|low] --attrs Rel.a,Rel.b [--topk K]
      [--degree interv|aggr|hybrid] [--minimality none|selfjoin|append]
      [--min-support X] [--naive]
)usage";

/// Flag storage: --name value pairs plus bare switches.
struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::vector<std::string>> flags;

  bool Has(const std::string& name) const { return flags.count(name) != 0; }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = flags.find(name);
    return it == flags.end() || it->second.empty() ? fallback
                                                   : it->second.back();
  }
  const std::vector<std::string>& GetAll(const std::string& name) const {
    static const std::vector<std::string> kEmpty;
    auto it = flags.find(name);
    return it == flags.end() ? kEmpty : it->second;
  }
};

Result<ParsedArgs> ParseArgs(const std::vector<std::string>& args,
                             size_t start) {
  // Bare switches take no value.
  static const std::vector<std::string> kSwitches = {"--repair", "--naive"};
  ParsedArgs out;
  for (size_t i = start; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!StartsWith(arg, "--")) {
      out.positional.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    bool is_switch = false;
    for (const std::string& sw : kSwitches) {
      if (arg == sw) is_switch = true;
    }
    if (is_switch) {
      out.flags[name];  // present, no values
      continue;
    }
    if (i + 1 >= args.size()) {
      return Status::InvalidArgument("flag --" + name + " needs a value");
    }
    out.flags[name].push_back(args[++i]);
  }
  return out;
}

Result<int64_t> ParseInt(const std::string& text, const char* what) {
  auto v = Value::Parse(text, DataType::kInt64);
  if (!v.ok() || v->is_null()) {
    return Status::InvalidArgument(std::string("bad ") + what + ": " + text);
  }
  return v->AsInt();
}

Result<double> ParseDouble(const std::string& text, const char* what) {
  auto v = Value::Parse(text, DataType::kDouble);
  if (!v.ok() || v->is_null()) {
    return Status::InvalidArgument(std::string("bad ") + what + ": " + text);
  }
  return v->AsDouble();
}

Database BuildRunningExampleDb() {
  auto author_schema = RelationSchema::Create("Author",
                                              {{"id", DataType::kString},
                                               {"name", DataType::kString},
                                               {"inst", DataType::kString},
                                               {"dom", DataType::kString}},
                                              {"id"});
  auto authored_schema = RelationSchema::Create(
      "Authored", {{"id", DataType::kString}, {"pubid", DataType::kString}},
      {"id", "pubid"});
  auto pub_schema = RelationSchema::Create("Publication",
                                           {{"pubid", DataType::kString},
                                            {"year", DataType::kInt64},
                                            {"venue", DataType::kString}},
                                           {"pubid"});
  Relation author(std::move(*author_schema));
  Relation authored(std::move(*authored_schema));
  Relation publication(std::move(*pub_schema));
  author.AppendUnchecked({Value::Str("A1"), Value::Str("JG"),
                          Value::Str("C.edu"), Value::Str("edu")});
  author.AppendUnchecked({Value::Str("A2"), Value::Str("RR"),
                          Value::Str("M.com"), Value::Str("com")});
  author.AppendUnchecked({Value::Str("A3"), Value::Str("CM"),
                          Value::Str("I.com"), Value::Str("com")});
  for (auto [a, p] : {std::pair{"A1", "P1"}, {"A2", "P1"}, {"A1", "P2"},
                      {"A3", "P2"}, {"A2", "P3"}, {"A3", "P3"}}) {
    authored.AppendUnchecked({Value::Str(a), Value::Str(p)});
  }
  publication.AppendUnchecked(
      {Value::Str("P1"), Value::Int(2001), Value::Str("SIGMOD")});
  publication.AppendUnchecked(
      {Value::Str("P2"), Value::Int(2011), Value::Str("VLDB")});
  publication.AppendUnchecked(
      {Value::Str("P3"), Value::Int(2001), Value::Str("SIGMOD")});
  Database db;
  XPLAIN_CHECK(db.AddRelation(std::move(author)).ok());
  XPLAIN_CHECK(db.AddRelation(std::move(authored)).ok());
  XPLAIN_CHECK(db.AddRelation(std::move(publication)).ok());
  ForeignKey to_author{"Authored", {"id"}, "Author", {"id"},
                       ForeignKeyKind::kStandard};
  ForeignKey to_pub{"Authored", {"pubid"}, "Publication", {"pubid"},
                    ForeignKeyKind::kBackAndForth};
  XPLAIN_CHECK(db.AddForeignKey(to_author).ok());
  XPLAIN_CHECK(db.AddForeignKey(to_pub).ok());
  return db;
}

Status RunGen(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.size() != 2) {
    return Status::InvalidArgument("gen needs <kind> <dir>");
  }
  const std::string& kind = args.positional[0];
  const std::string& dir = args.positional[1];
  Database db;
  if (kind == "natality") {
    datagen::NatalityOptions options;
    XPLAIN_ASSIGN_OR_RETURN(int64_t rows,
                            ParseInt(args.Get("rows", "100000"), "--rows"));
    options.num_rows = static_cast<size_t>(rows);
    XPLAIN_ASSIGN_OR_RETURN(int64_t seed,
                            ParseInt(args.Get("seed", "2010"), "--seed"));
    options.seed = static_cast<uint64_t>(seed);
    XPLAIN_ASSIGN_OR_RETURN(db, datagen::GenerateNatality(options));
  } else if (kind == "dblp") {
    datagen::DblpOptions options;
    XPLAIN_ASSIGN_OR_RETURN(double scale,
                            ParseDouble(args.Get("scale", "1.0"), "--scale"));
    options.scale = scale;
    XPLAIN_ASSIGN_OR_RETURN(int64_t seed,
                            ParseInt(args.Get("seed", "14"), "--seed"));
    options.seed = static_cast<uint64_t>(seed);
    XPLAIN_ASSIGN_OR_RETURN(db, datagen::GenerateDblp(options));
  } else if (kind == "running-example") {
    db = BuildRunningExampleDb();
  } else {
    return Status::InvalidArgument("unknown dataset kind: " + kind);
  }
  XPLAIN_RETURN_IF_ERROR(SaveDatabase(db, dir));
  out << "wrote " << db.num_relations() << " relations ("
      << db.TotalRows() << " rows) to " << dir << "\n";
  return Status::OK();
}

Status RunSchema(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.size() != 1) {
    return Status::InvalidArgument("schema needs <dir>");
  }
  XPLAIN_ASSIGN_OR_RETURN(Database db, LoadDatabase(args.positional[0]));
  out << db.ToString(0) << "\n";
  SchemaCausalGraph graph(&db);
  out << "schema causal graph: simple=" << (graph.IsSimple() ? "yes" : "no")
      << " acyclic=" << (graph.IsAcyclicSchema() ? "yes" : "no")
      << " back-and-forth-keys=" << graph.NumBackAndForth() << "\n";
  if (auto bound = graph.StaticConvergenceBound()) {
    out << "program P static convergence bound: " << *bound
        << " iterations\n";
  } else {
    out << "program P needs data-dependent recursion (no static bound)\n";
  }
  return Status::OK();
}

Status RunQuery(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.size() != 1 || !args.Has("agg")) {
    return Status::InvalidArgument("query needs <dir> --agg ...");
  }
  XPLAIN_ASSIGN_OR_RETURN(Database db, LoadDatabase(args.positional[0]));
  XPLAIN_ASSIGN_OR_RETURN(AggregateSpec agg,
                          ParseAggregate(db, args.Get("agg")));
  XPLAIN_ASSIGN_OR_RETURN(DnfPredicate where,
                          ParseDnfPredicate(db, args.Get("where", "")));
  XPLAIN_ASSIGN_OR_RETURN(UniversalRelation u, UniversalRelation::Build(db));
  Value result = EvaluateAggregate(u, agg, &where);
  out << agg.ToString(db);
  if (!where.IsTrue()) out << " where " << where.ToString(db);
  out << " = " << result.ToUnquotedString() << "\n";
  return Status::OK();
}

Status RunIntervene(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.size() != 1 || !args.Has("phi")) {
    return Status::InvalidArgument("intervene needs <dir> --phi ...");
  }
  XPLAIN_ASSIGN_OR_RETURN(Database db, LoadDatabase(args.positional[0]));
  XPLAIN_ASSIGN_OR_RETURN(DnfPredicate phi,
                          ParseDnfPredicate(db, args.Get("phi")));
  XPLAIN_ASSIGN_OR_RETURN(UniversalRelation u, UniversalRelation::Build(db));
  InterventionEngine engine(&u);
  InterventionOptions options;
  options.repair = args.Has("repair");
  XPLAIN_ASSIGN_OR_RETURN(InterventionResult result,
                          engine.Compute(phi, options));
  out << "intervention for " << phi.ToString(db) << ": "
      << DeltaCount(result.delta) << " of " << db.TotalRows()
      << " tuples, " << result.iterations << " iterations, seed "
      << result.seed_count << ", residual phi-free: "
      << (result.residual_phi_free ? "yes" : "no") << "\n";
  for (int r = 0; r < db.num_relations(); ++r) {
    out << "  Delta_" << db.relation(r).name() << ": "
        << result.delta[r].count() << " tuples";
    size_t shown = 0;
    for (size_t row : result.delta[r].ToRows()) {
      if (shown++ >= 5) {
        out << " ...";
        break;
      }
      out << " " << TupleToString(db.relation(r).row(row));
    }
    out << "\n";
  }
  ValidityReport report = VerifyIntervention(db, phi, result.delta);
  out << "validity (Def 2.6): " << report.ToString() << "\n";
  return Status::OK();
}

Status RunFlatten(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.size() != 2 || !args.Has("fanout")) {
    return Status::InvalidArgument("flatten needs <dir> <out-dir> --fanout N");
  }
  XPLAIN_ASSIGN_OR_RETURN(Database db, LoadDatabase(args.positional[0]));
  XPLAIN_ASSIGN_OR_RETURN(int64_t fanout,
                          ParseInt(args.Get("fanout"), "--fanout"));
  XPLAIN_ASSIGN_OR_RETURN(FlattenResult flat,
                          FlattenBackAndForth(db, static_cast<int>(fanout)));
  XPLAIN_RETURN_IF_ERROR(SaveDatabase(flat.db, args.positional[1]));
  out << "flattened into " << flat.db.num_relations() << " relations ("
      << flat.fact_relation << " + " << flat.member_copies.size()
      << " member copies + " << flat.dimension_copies.size()
      << " dimension copies); no back-and-forth keys remain, count(*) is "
      << "intervention-additive (paper Section 4.1)\n";
  return Status::OK();
}

Status RunAsk(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.size() != 1) {
    return Status::InvalidArgument("ask needs <dir>");
  }
  if (!args.Has("subquery") || !args.Has("expr") || !args.Has("attrs")) {
    return Status::InvalidArgument(
        "ask needs --subquery (repeatable), --expr and --attrs");
  }
  XPLAIN_ASSIGN_OR_RETURN(Database db, LoadDatabase(args.positional[0]));

  server::Request request;
  for (const std::string& spec : args.GetAll("subquery")) {
    std::vector<std::string> parts = Split(spec, '|');
    if (parts.size() != 3) {
      return Status::InvalidArgument(
          "--subquery must be \"name|aggregate|where\": " + spec);
    }
    request.subqueries.push_back(
        server::SubquerySpec{std::string(Trim(parts[0])), parts[1], parts[2]});
  }
  request.expr = args.Get("expr");
  request.direction = ToLower(args.Get("direction", "high"));
  XPLAIN_ASSIGN_OR_RETURN(UserQuestion question,
                          server::BuildQuestion(db, request));
  if (request.direction != "high" && request.direction != "low") {
    return Status::InvalidArgument("--direction must be high or low");
  }

  ExplainOptions options;
  XPLAIN_ASSIGN_OR_RETURN(int64_t top_k,
                          ParseInt(args.Get("topk", "5"), "--topk"));
  options.top_k = static_cast<size_t>(top_k);
  std::string degree = ToLower(args.Get("degree", "interv"));
  if (degree == "interv" || degree == "intervention") {
    options.degree = DegreeKind::kIntervention;
  } else if (degree == "aggr" || degree == "aggravation") {
    options.degree = DegreeKind::kAggravation;
  } else if (degree == "hybrid") {
    options.degree = DegreeKind::kHybrid;
  } else {
    return Status::InvalidArgument("--degree must be interv, aggr or hybrid");
  }
  std::string minimality = ToLower(args.Get("minimality", "append"));
  if (minimality == "none") {
    options.minimality = MinimalityStrategy::kNone;
  } else if (minimality == "selfjoin") {
    options.minimality = MinimalityStrategy::kSelfJoin;
  } else if (minimality == "append") {
    options.minimality = MinimalityStrategy::kAppend;
  } else {
    return Status::InvalidArgument(
        "--minimality must be none, selfjoin or append");
  }
  XPLAIN_ASSIGN_OR_RETURN(
      options.min_support,
      ParseDouble(args.Get("min-support", "0"), "--min-support"));
  options.use_cube = !args.Has("naive");

  std::vector<std::string> attrs = Split(args.Get("attrs"), ',');
  for (std::string& attr : attrs) attr = std::string(Trim(attr));

  XPLAIN_ASSIGN_OR_RETURN(ExplainEngine engine, ExplainEngine::Create(&db));
  Stopwatch watch;
  XPLAIN_ASSIGN_OR_RETURN(ExplainReport report,
                          engine.Explain(question, attrs, options));
  out << question.query.ToString(db) << "\n";
  out << "direction: " << DirectionToString(question.direction)
      << ", degree: " << DegreeKindToString(options.degree)
      << ", minimality: " << MinimalityStrategyToString(options.minimality)
      << "\n";
  out << report.ToString(db);
  out << "(" << report.table.NumRows() << " candidate explanations in "
      << watch.ElapsedSeconds() << " s)\n";
  return Status::OK();
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << kUsage;
    return args.empty() ? 1 : 0;
  }
  const std::string& command = args[0];
  auto parsed = ParseArgs(args, 1);
  if (!parsed.ok()) {
    err << "error: " << parsed.status().message() << "\n";
    return 1;
  }
  Status status;
  if (command == "gen") {
    status = RunGen(*parsed, out);
  } else if (command == "schema") {
    status = RunSchema(*parsed, out);
  } else if (command == "query") {
    status = RunQuery(*parsed, out);
  } else if (command == "intervene") {
    status = RunIntervene(*parsed, out);
  } else if (command == "flatten") {
    status = RunFlatten(*parsed, out);
  } else if (command == "ask") {
    status = RunAsk(*parsed, out);
  } else {
    err << "error: unknown command '" << command << "'\n" << kUsage;
    return 1;
  }
  if (!status.ok()) {
    err << "error: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace cli
}  // namespace xplain

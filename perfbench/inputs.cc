#include "inputs.h"

#include <algorithm>
#include <sstream>

#include "common/rng.h"
#include "rdf/ntriples.h"
#include "workload/queries.h"
#include "workload/vocab.h"

namespace perfbench {

namespace v = hsparql::workload::vocab;
using hsparql::SplitMix64;
using hsparql::rdf::Term;

namespace {

constexpr std::string_view kWorkloadNames[] = {"lookup", "analytic",
                                               "write-mix"};
constexpr std::string_view kTemplateNames[] = {
    "article", "author", "proceeding", "inproceeding",
    "new_article", "paper_query", "write"};

constexpr std::string_view kPrefixes =
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX dc: <http://purl.org/dc/elements/1.1/>\n"
    "PREFIX dcterms: <http://purl.org/dc/terms/>\n"
    "PREFIX swrc: <http://swrc.ontoware.org/ontology#>\n"
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n";

/// Authors below this index are the Zipf head (hundreds of papers each);
/// lookups draw from the tail so every author query stays selective.
constexpr std::uint32_t kAuthorTailStart = 200;
/// Pages are drawn from [1, 400] by the generator.
constexpr std::uint32_t kMaxPages = 400;
/// Hot-set size of write-mix: well under the plan cache's 128 entries.
constexpr std::uint32_t kHotSet = 16;
/// write-mix reads of new articles pick from this many latest batches.
constexpr std::uint32_t kRecentBatches = 2;

std::string Publication(std::string_view local) {
  return "<" + std::string(v::kSp2b) + std::string(local) + ">";
}

std::string NewArticleIri(std::uint32_t client, std::uint32_t batch,
                          std::uint32_t index) {
  return std::string(v::kSp2b) + "NewArticle" + std::to_string(client) + "x" +
         std::to_string(batch) + "x" + std::to_string(index);
}

std::uint64_t Fnv(std::uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string ToNTriples(const hsparql::rdf::Graph& graph) {
  std::ostringstream out;
  hsparql::rdf::WriteNTriples(graph, out);
  return std::move(out).str();
}

/// One lookup read with constants drawn from the dataset's id ranges.
Op LookupRead(SplitMix64& rng, const hsparql::workload::Sp2bConfig& config,
              std::uint8_t client) {
  const auto articles = static_cast<std::uint32_t>(
      config.years * config.articles_per_journal);
  const auto inprocs = static_cast<std::uint32_t>(
      config.years * config.proceedings_per_year *
      config.inproceedings_per_proceeding);
  Op op;
  op.client = client;
  switch (rng.NextBounded(4)) {
    case 0:
      op.tmpl = Template::kArticle;
      op.a = static_cast<std::uint32_t>(rng.NextBounded(articles));
      break;
    case 1:
      op.tmpl = Template::kAuthor;
      op.a = kAuthorTailStart +
             static_cast<std::uint32_t>(rng.NextBounded(
                 config.num_authors - kAuthorTailStart));
      break;
    case 2:
      op.tmpl = Template::kProceeding;
      op.a = static_cast<std::uint32_t>(
          rng.NextBounded(config.years * config.proceedings_per_year));
      op.b = 1 + static_cast<std::uint32_t>(rng.NextBounded(kMaxPages));
      break;
    default:
      op.tmpl = Template::kInproceeding;
      op.a = static_cast<std::uint32_t>(rng.NextBounded(inprocs));
      break;
  }
  return op;
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kWorkloadNames); ++i) {
    if (kWorkloadNames[i] == name) return static_cast<Workload>(i);
  }
  return std::nullopt;
}

std::string_view WorkloadName(Workload workload) {
  return kWorkloadNames[static_cast<std::size_t>(workload)];
}

std::string_view TemplateName(Template t) {
  return kTemplateNames[static_cast<std::size_t>(t)];
}

Dataset Inputs::DatasetOf(const Op& op) const {
  return op.tmpl == Template::kPaperQuery ? paper_queries[op.a].dataset
                                          : kSp2b;
}

std::string Inputs::RenderQuery(const Op& op) const {
  std::string q(kPrefixes);
  switch (op.tmpl) {
    case Template::kArticle:
      q += "SELECT ?p ?o WHERE { " +
           Publication("Article" + std::to_string(op.a)) + " ?p ?o . }\n";
      break;
    case Template::kAuthor:
      q += "SELECT ?doc WHERE { ?doc dc:creator " +
           Publication("Person" + std::to_string(op.a)) + " . }\n";
      break;
    case Template::kProceeding: {
      const std::uint32_t year = op.a / static_cast<std::uint32_t>(
                                            sp2b.proceedings_per_year);
      const std::uint32_t number = op.a % static_cast<std::uint32_t>(
                                              sp2b.proceedings_per_year);
      q += "SELECT ?inproc WHERE { ?inproc dcterms:partOf " +
           Publication("Proceeding" + std::to_string(year) + "/" +
                       std::to_string(number)) +
           " . ?inproc swrc:pages \"" + std::to_string(op.b) + "\" . }\n";
      break;
    }
    case Template::kInproceeding: {
      const std::string inproc =
          Publication("Inproceeding" + std::to_string(op.a));
      q += "SELECT ?title ?author WHERE { " + inproc +
           " dc:title ?title . " + inproc + " dc:creator ?author . }\n";
      break;
    }
    case Template::kNewArticle:
      q += "SELECT ?p ?o WHERE { <" + NewArticleIri(op.client, op.a, op.b) +
           "> ?p ?o . }\n";
      break;
    case Template::kPaperQuery:
      return paper_queries[op.a].text;
    case Template::kWrite:
      return {};
  }
  return q;
}

std::vector<std::array<Term, 3>> Inputs::RenderBatch(const Op& op) const {
  // Constants depend on (seed, client, batch) only, never on timing.
  SplitMix64 rng(seed ^ (0x77726974ULL << 20) ^
                 (static_cast<std::uint64_t>(op.client) << 40) ^ op.a);
  std::vector<std::array<Term, 3>> out;
  out.reserve(articles_per_batch * 8);
  const auto add = [&](const std::string& s, std::string_view p, Term o) {
    out.push_back({Term::Iri(s), Term::Iri(std::string(p)), std::move(o)});
  };
  for (std::uint32_t i = 0; i < articles_per_batch; ++i) {
    const std::string article = NewArticleIri(op.client, op.a, i);
    const std::string year =
        std::to_string(1940 + rng.NextBounded(sp2b.years));
    add(article, v::kRdfType, Term::Iri(std::string(v::kBenchArticle)));
    add(article, v::kDcTitle,
        Term::Literal("New article " + std::to_string(op.client) + "/" +
                      std::to_string(op.a) + "/" + std::to_string(i)));
    add(article, v::kSwrcJournal,
        Term::Iri(std::string(v::kSp2b) + "Journal1/" + year));
    add(article, v::kDctermsIssued, Term::Literal(year));
    add(article, v::kDcCreator,
        Term::Iri(std::string(v::kSp2b) + "Person" +
                  std::to_string(rng.NextBounded(sp2b.num_authors))));
    add(article, v::kSwrcPages,
        Term::Literal(std::to_string(1 + rng.NextBounded(kMaxPages))));
    add(article, v::kRdfsSeeAlso,
        Term::Iri("http://dblp.example.org/new/" + std::to_string(op.client) +
                  "/" + std::to_string(op.a) + "/" + std::to_string(i)));
    add(article, v::kSwrcMonth,
        Term::Literal(std::to_string(1 + rng.NextBounded(12))));
  }
  return out;
}

std::uint64_t Inputs::Digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& doc : ntriples) h = Fnv(h, doc);
  for (const auto& ops : clients) {
    h = Fnv(h, "|client|");
    for (const Op& op : ops) {
      if (op.tmpl == Template::kWrite) {
        for (const auto& t : RenderBatch(op)) {
          for (const Term& term : t) h = Fnv(h, term.lexical);
        }
      } else {
        h = Fnv(h, RenderQuery(op));
      }
    }
  }
  return h;
}

Inputs MakeInputs(Workload workload, std::uint64_t seed,
                  std::size_t ops_per_client) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  SplitMix64 rng(seed);

  const bool needs_yago = workload == Workload::kAnalytic;
  in.sp2b = hsparql::workload::Sp2bConfig::FromTargetTriples(kSp2bTriples,
                                                             rng.Next());
  {
    hsparql::rdf::Graph graph = hsparql::workload::GenerateSp2b(in.sp2b);
    in.triples[kSp2b] = graph.size();
    in.ntriples[kSp2b] = ToNTriples(graph);
  }
  const std::uint64_t yago_seed = rng.Next();
  if (needs_yago) {
    hsparql::rdf::Graph graph = hsparql::workload::GenerateYago(
        hsparql::workload::YagoConfig::FromTargetTriples(kYagoTriples,
                                                         yago_seed));
    in.triples[kYago] = graph.size();
    in.ntriples[kYago] = ToNTriples(graph);
  }

  for (const auto& wq : hsparql::workload::AllQueries()) {
    in.paper_queries.push_back(
        {wq.id,
         wq.dataset == hsparql::workload::Dataset::kYago ? kYago : kSp2b,
         wq.sparql});
  }
  const auto num_queries =
      static_cast<std::uint32_t>(in.paper_queries.size());

  // Every traced run replays write-mix batches on a standalone store.
  in.articles_per_batch = 200;
  switch (workload) {
    case Workload::kLookup:
      for (std::size_t c = 0; c < kClients; ++c) {
        auto& ops = in.clients.emplace_back();
        ops.reserve(ops_per_client);
        for (std::size_t i = 0; i < ops_per_client; ++i) {
          ops.push_back(
              LookupRead(rng, in.sp2b, static_cast<std::uint8_t>(c)));
        }
      }
      break;

    case Workload::kAnalytic: {
      // Every paper query but SP4a, whose 864k-row answer would swamp the
      // rest; clients start the rotation at different offsets.
      std::vector<std::uint32_t> rotation;
      for (std::uint32_t q = 0; q < num_queries; ++q) {
        if (in.paper_queries[q].id != "SP4a") rotation.push_back(q);
      }
      for (std::size_t c = 0; c < kClients; ++c) {
        auto& ops = in.clients.emplace_back();
        const std::size_t offset = c * rotation.size() / kClients;
        for (std::size_t i = 0; i < rotation.size(); ++i) {
          Op op;
          op.tmpl = Template::kPaperQuery;
          op.client = static_cast<std::uint8_t>(c);
          op.a = rotation[(offset + i) % rotation.size()];
          ops.push_back(op);
        }
      }
      break;
    }

    case Workload::kWriteMix: {
      // A write costs ~200 reads, so with 1000 reads per write most reads
      // run beside no write (p50) and the rest beside one (p99); 1600
      // triples per write take the delta across the compaction threshold
      // several times per run.
      in.reads_per_write = 1000;
      // The hot set: lookups whose answers no write can change (new
      // articles only add subjects of their own).
      std::vector<Op> hot;
      while (hot.size() < kHotSet) {
        Op op = LookupRead(rng, in.sp2b, 0);
        if (op.tmpl != Template::kAuthor) hot.push_back(op);
      }
      for (std::size_t c = 0; c < kClients; ++c) {
        auto& ops = in.clients.emplace_back();
        ops.reserve(ops_per_client);
        std::uint32_t batches = 0;
        for (std::size_t i = 0; i < ops_per_client; ++i) {
          Op op;
          op.client = static_cast<std::uint8_t>(c);
          if (i % (in.reads_per_write + 1) == in.reads_per_write) {
            op.tmpl = Template::kWrite;
            op.a = batches++;
          } else if (batches > 0 && rng.NextBounded(2) == 0) {
            // A recently written article (written by this client, so it
            // exists whatever the other client is doing).
            const std::uint32_t window = std::min(batches, kRecentBatches);
            op.tmpl = Template::kNewArticle;
            op.a = batches - 1 -
                   static_cast<std::uint32_t>(rng.NextBounded(window));
            op.b = static_cast<std::uint32_t>(
                rng.NextBounded(in.articles_per_batch));
          } else {
            op = hot[rng.NextBounded(hot.size())];
            op.client = static_cast<std::uint8_t>(c);
          }
          ops.push_back(op);
        }
      }
      break;
    }
  }
  return in;
}

}  // namespace perfbench

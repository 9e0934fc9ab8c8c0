"""Walk one document body through the extraction pipeline, stage by stage.

The pipeline turns raw body text into training instances: sentence
splitting, citation marker detection, consecutive-sentence grouping, and
placeholder rewriting. Each stage prints what it produced.
"""

from citegen.corpus import (
    Corpus,
    Document,
    IntentLabel,
    annotate,
    build_dataset,
    group_consecutive,
    rewrite_target,
    split_sentences,
)

body = (
    "Prior work shaped this area. Smith et al. (2019) introduced margin "
    "pruning. This idea matured quickly. We adopt the estimator of "
    "(Jones et al., 2020). Unrelated filler follows here. More filler sits "
    "between groups. Results in [3] disagree with ours, extending "
    "Ghost et al. (1888)."
)

key_table = {
    "smith 2019": "D1",
    "jones 2020": "D2",
    "[3]": "D3",
}

documents = {
    "P1": Document(id="P1", title="Citing paper", abstract="We study pruning."),
    "D1": Document(id="D1", title="Margin pruning", abstract="Margins help."),
    "D2": Document(id="D2", title="Estimators", abstract="Estimation focus."),
    "D3": Document(id="D3", title="Counterpoint", abstract="A different view."),
}

print("=== 1. sentence splitting ===")
spans = split_sentences(body)
for s in spans:
    print(f"  [{s.index}] {s.text}")

print("\n=== 2. citation detection ===")
annotated = annotate(spans, key_table)
for a in annotated:
    if a.is_explicit:
        print(f"  [{a.index}] keys={a.cite_keys} markers={[m.text for m in a.markers]}")

print("\n=== 3. grouping (gap of one plain sentence allowed) ===")
groups = group_consecutive(annotated)
for g in groups:
    print(f"  group: sentence indices {[a.index for a in g]}")

print("\n=== 4. placeholder rewriting ===")
for g in groups:
    target, cited = rewrite_target(g, annotated)
    print(f"  cited={cited}")
    print(f"  target: {target}")

print("\n=== 5. full build ===")
# a real run predicts intents with the classifier; here they are fixed
result = build_dataset(
    Corpus(documents, key_table),
    {"P1": body},
    lambda targets: [[IntentLabel.BACKGROUND] * t.count("<B") for t in targets],
)
for inst in result.instances:
    print(f"  {inst.instance_id}: intents={[i.value for i in inst.intents]}")
    print(f"    {inst.target}")
print(f"  skipped groups: {result.skipped}")

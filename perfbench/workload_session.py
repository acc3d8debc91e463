"""``session_predict``: one caller drives a warm ``InferenceSession``.

A checkpoint of the seed's corpus is trained and saved in a child process;
set-up is ``FakeDetector.load`` plus ``InferenceSession(...)`` with the
default feature-cache size, repeated ``SETUPS`` times. The run then scores
unseen articles with unique texts in a closed loop, one article per call
and 64 per call in alternating blocks. Every text is new, so the cache misses by content.
Each call is timed right after one run of the reference kernel of
``speed.py`` and scaled to reference speed with it.

The traced run alternates each untraced ``session.predict`` with a
re-issue of the same work from public calls (tokenizer, bag-of-words,
sequence encoder, then the article HFLU, GDU and head under ``no_tape``)
on the next articles, timing each call, for ``SESSION_TRACE_SHARE`` of
the run. The rest runs ``workload_http.serve_layers`` on the same
checkpoint: no gated workload covers the HTTP path, so its layers are
split here.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

from inputs import NewArticles, load_bases, run_prepare
from measure import Result, describe_ms, mean, median, quantile, self_peak_rss_mb
from speed import kernel_seconds, scale

SETUPS = 9
BATCHES = (1, 64)
#: Batch-1 and batch-64 calls alternate in blocks this long, so each batch
#: size samples the whole run: the machine's speed drifts over seconds.
BLOCK_S = 1.0
#: Articles scored one by one and as one batch to compare the two paths.
PROBES = 64
#: Largest allowed probability difference between equal computations.
PROBA_ATOL = 1e-9
#: Share of a traced run that splits the session's layers; the HTTP path's
#: layers get the rest.
SESSION_TRACE_SHARE = 0.5


def build_session(ckpt: Path):
    """``(detector, session, load seconds, init seconds)``."""
    from repro import FakeDetector
    from repro.serve import InferenceSession

    t0 = perf_counter()
    detector = FakeDetector.load(ckpt)
    t1 = perf_counter()
    session = InferenceSession(detector)
    return detector, session, t1 - t0, perf_counter() - t1


def same_predictions(a, b) -> bool:
    """Equal ids and labels, probabilities within ``PROBA_ATOL``."""
    return len(a) == len(b) and all(
        p.entity_id == q.entity_id
        and p.class_index == q.class_index
        and max(abs(float(x) - float(y)) for x, y in zip(p.proba, q.proba)) <= PROBA_ATOL
        for p, q in zip(a, b)
    )


def run(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    src = Path.cwd() / "src"
    run_prepare(seed, work, src)
    ckpt = work / "ckpt"
    articles = NewArticles(load_bases(work / "bases.json"), seed, prefix="new")
    result = Result()

    setups, inits = [], []
    for _ in range(SETUPS):
        detector, session, load_s, init_s = build_session(ckpt)
        setups.append(load_s + init_s)
        inits.append(init_s)
    result.report.append(f"setup_s = {median(setups):.4f} s over {len(setups)} set-ups")

    _check_batch_agreement(result, detector, articles.take(PROBES))

    if trace:
        import workload_http

        _run_traced(result, detector, session, articles, SESSION_TRACE_SHARE * seconds, inits)
        workload_http.serve_layers(
            result, ckpt, work, detector, seed, (1 - SESSION_TRACE_SHARE) * seconds
        )
        return result

    walls = {batch: [] for batch in BATCHES}
    scaled = {batch: [] for batch in BATCHES}
    wrong = dict.fromkeys(BATCHES, 0)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        for batch in BATCHES:
            wrong[batch] += _closed_loop(
                session, articles, batch, BLOCK_S, walls[batch], scaled[batch]
            )
    for batch in BATCHES:
        sent, failed = len(walls[batch]), wrong[batch]
        result.attempted += sent
        result.failed += failed
        result.report.append(
            f"phase batch {batch}: calls sent={sent} succeeded={sent - failed} failed={failed}"
        )
    result.check(
        "session.ids_match", not any(wrong.values()), f"calls returned wrong ids: {wrong}"
    )
    stats = session.cache_stats()
    result.check(
        "session.cache_missed", stats["hits"] == 0,
        f"feature cache hit {stats['hits']} times; every text should be new",
    )
    b1, b64 = scaled[1], scaled[64]
    result.metrics.update(
        setup_s=median(setups),
        peak_rss_mb=self_peak_rss_mb(),
        latency_ms=1e3 * median(b1),
        throughput_per_s=64 / median(b64),
    )
    result.report.append(describe_ms("batch 1 at reference speed", b1))
    result.report.append(describe_ms("batch 64 at reference speed", b64))
    result.report.append(describe_ms("batch 1 raw wall", walls[1]))
    result.report.append(describe_ms("batch 64 raw wall", walls[64]))
    result.report.append(f"session_b1_ms_p50 = {1e3 * median(b1):.4f} ms (n={len(b1)})")
    result.report.append(f"session_b1_ms_p99 = {1e3 * quantile(b1, 0.99):.4f} ms (n={len(b1)})")
    result.report.append(
        f"session_b64_articles_per_s = {64 / median(b64):.1f} 1/s at the call p50"
    )
    result.report.append(f"feature cache: {stats}")
    return result


def _closed_loop(session, articles, batch: int, seconds: float, walls, scaled) -> int:
    """Score ``batch`` new articles per call for ``seconds``; count wrong answers.

    Each call is preceded by one run of the reference kernel, which scales
    the call's wall time to reference speed.
    """
    wrong = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        chunk = articles.take(batch)
        factor = scale(kernel_seconds())
        start = perf_counter()
        predictions = session.predict(chunk)
        walls.append(perf_counter() - start)
        scaled.append(walls[-1] * factor)
        if [p.entity_id for p in predictions] != [a.article_id for a in chunk]:
            wrong += 1
    return wrong


def _check_batch_agreement(result: Result, detector, probes) -> None:
    """Batch 1 and batch 64 score the same articles alike."""
    from repro.serve import InferenceSession

    session = InferenceSession(detector, feature_cache_size=0)
    one_by_one = [session.predict([a], return_proba=True)[0] for a in probes]
    batched = session.predict(probes, return_proba=True)
    result.attempted += 2
    result.check(
        "session.b1_equals_b64", same_predictions(one_by_one, batched),
        "batch-1 and batch-64 predictions of the same articles differ",
    )


def _run_traced(result: Result, detector, session, articles, seconds, inits) -> Result:
    import numpy as np

    from repro.autograd import Tensor, no_tape
    from repro.core.predictions import predictions_from_logits
    from repro.text.sequences import encode_batch
    from repro.text.tokenizer import tokenize

    model = detector.model
    features = detector.features
    extractor = features.extractors["article"]
    max_len = detector.config.max_seq_len
    with no_tape():
        _, states = model.forward_with_states(features, detector.graph)
    h_creator = states["creator"].data
    h_subject = states["subject"].data
    creator_rows = features.creators.index
    subject_rows = features.subjects.index
    hidden = model.gdu_article.hidden_dim

    def reissue(chunk, laps):
        marks = [perf_counter()]
        tokens = [tokenize(a.text) for a in chunk]
        marks.append(perf_counter())
        if len(tokens) == 1:
            explicit = extractor.transform_one(tokens[0])[None]
        else:
            explicit = extractor.transform(tokens)
        marks.append(perf_counter())
        sequences = encode_batch(tokens, features.vocab, max_len)
        marks.append(perf_counter())
        z = np.zeros((len(chunk), hidden))
        t = np.zeros((len(chunk), hidden))
        for i, a in enumerate(chunk):
            rows = [subject_rows[s] for s in a.subject_ids if s in subject_rows]
            if rows:
                z[i] = h_subject[rows].mean(axis=0)
            if a.creator_id in creator_rows:
                t[i] = h_creator[creator_rows[a.creator_id]]
        with no_tape():
            marks.append(perf_counter())
            x = model.hflu_article(explicit, sequences)
            marks.append(perf_counter())
            h = model.gdu_article(x, Tensor(z), Tensor(t))
            marks.append(perf_counter())
            logits = model.head_article(h).data
            marks.append(perf_counter())
        out = predictions_from_logits(
            [a.article_id for a in chunk], logits, return_proba=True
        )
        laps.append(marks + [perf_counter()])
        return out

    # The re-issue must compute what the session computes.
    probes = articles.take(PROBES)
    result.attempted += 1
    result.check(
        "session.reissue_equals_predict",
        same_predictions(reissue(probes, []), session.predict(probes, return_proba=True)),
        "the public-call re-issue does not reproduce session.predict",
    )

    names = ("text.tokenize_us", "text.bow_us", "text.encode_seq_us", None,
             "core.hflu_article_us", "core.gdu_article_us", "core.head_article_us")
    untraced_total = traced_total = 0.0
    for batch in BATCHES:
        walls, laps = [], []
        deadline = perf_counter() + seconds / len(BATCHES)
        while perf_counter() < deadline:
            chunk = articles.take(batch)
            start = perf_counter()
            session.predict(chunk)
            walls.append(perf_counter() - start)
            reissue(articles.take(batch), laps)
        result.attempted += 2 * len(walls)
        suffix = f".b{batch}"
        attributed = 0.0
        for k, name in enumerate(names):
            if name is None:
                continue
            per_call = mean([lap[k + 1] - lap[k] for lap in laps])
            attributed += per_call
            result.metrics[name + suffix] = 1e6 * per_call / batch
        wall = mean(walls)
        result.metrics["session.unattributed_share" + suffix] = 1.0 - attributed / wall
        result.report.append(
            f"session.unattributed_share{suffix} = {1.0 - attributed / wall:.4f} "
            f"(ROADMAP item 1 target <= 0.10) of the untraced call mean "
            f"{1e3 * wall:.4f} ms over {len(walls)} calls"
        )
        untraced_total += sum(walls)
        traced_total += sum(lap[-1] - lap[0] for lap in laps)

    stats = session.cache_stats()
    result.metrics.update({
        "serve.session_init_s": median(inits),
        "serve.feature_cache_hit_ratio": stats["hits"] / max(1, stats["hits"] + stats["misses"]),
        "trace_overhead_ratio": traced_total / untraced_total,
    })
    return result

"""Run the mutant catalogue: each entry breaks the program on purpose, and its
named tests must fail.

Usage (from the root of a source checkout):

    python3 tools/mutants.py

Each entry in ``MUTANTS`` gives a file, an exact text that occurs once in it,
the text that replaces it, and the pytest node IDs that must fail once it is
replaced. For each entry the tool copies the whole checkout to a temporary
directory, since the tests also read README, ``perfbench/`` and ``tools/``.
The copy leaves out ``.git``, ``perfbench/.work``, the bytecode and pytest
caches and hypothesis's example database, which a fresh clone lacks, so a
verdict cannot rest on examples saved by earlier runs. It runs the named
tests there once unmutated, with the copy's ``src`` first on the import
path, and they must all pass; then it applies the replacement and runs them
again. An entry is killed when each of its node IDs has a failing test. The
tool prints one line per entry: killed, survived, stale (the text does not
occur exactly once) or broken (the named tests do not all pass on the
unmutated copy, so a failure would show nothing), the time taken and the
failed node IDs.

Exits 0 when every entry is killed and 1 otherwise. A refactor that moves a
mutated text or a named test therefore updates this catalogue in the same
diff.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout's root
    text: str  # occurs exactly once in ``file``
    replacement: str
    kills: tuple[str, ...]  # node IDs of which each must fail


MUTANTS = [
    Mutant(  # the sine term of each plane's second column flips its sign
        "rotation-sine-sign", "src/cclearn/data.py",
        "y[:, j] = (xi * sin + xj * cos)", "y[:, j] = (xj * cos - xi * sin)",
        ("tests/test_data.py::TestGenerateDomains::test_bit_equal_to_the_whole_array_expressions",),
    ),
    Mutant(  # the target starts uninitialised: an odd D's fixed axis is never written
        "rotation-block-copy-dropped", "src/cclearn/data.py",
        "shift, target = _translation_vector(config), source * config.scale",
        "shift, target = _translation_vector(config), np.empty_like(source)",
        ("tests/test_data.py::TestGenerateDomains::test_bit_equal_to_the_whole_array_expressions",),
    ),
    Mutant(
        "translation-direction", "src/cclearn/data.py",
        "return float(config.translation) * direction",
        "return -float(config.translation) * direction",
        ("tests/test_data.py::TestGenerateDomains::test_bit_equal_to_the_whole_array_expressions",),
    ),
    Mutant(  # acceptance 6 compares checkpoints only, and passes on this mutant
        "bank-updated-at-alpha-zero", "src/cclearn/trainer.py",
        "fold = source and config.alpha > 0", "fold = source",
        ("tests/test_trainer.py::TestTrain::test_alpha_zero_never_touches_bank",
         "tests/test_cli.py::TestDiagnose::test_empirical_centroid_fallback"),
    ),
    Mutant(  # the CLI error contract: a run's bank of another K or F
        "run-bank-k-f-unchecked", "src/cclearn/cli.py",
        "if (bank.num_classes, bank.feature_dim) != (params.num_classes, params.feature_dim):",
        "if False:",
        ("tests/test_cli.py::test_run_file_errors_name_a_path",),  # its @example cases
    ),
    Mutant(  # the spread file's explained-variance lines swapped
        "spread-explained-swapped", "src/cclearn/cli.py",
        "[spread, *basis.explained]", "[spread, *basis.explained[::-1]]",
        ("tests/test_cli.py::test_eval_and_spread_files_equal_an_in_process_oracle",),
    ),
    Mutant(  # every header line of every run file lost
        "write-file-drops-str-parts", "src/cclearn/codec.py", "hashed.write(part.encode())", "pass",
        ("tests/test_codec.py::test_golden_bytes",),
    ),
    Mutant(  # the bytes are right, but the rows miss the digest: a table's sidecar never serves it
        "write-file-digest-bypassed", "src/cclearn/codec.py",
        "write_rows(hashed, sep, end, *part)", "write_rows(fh, sep, end, *part)",
        ("tests/test_codec.py::test_save_table_digests_the_bytes_it_writes",
         "tests/test_codec.py::test_write_file_returns_the_digest_of_the_file_it_wrote"),
    ),
    Mutant(
        "history-fields-reversed", "src/cclearn/trainer.py",
        "columns = fields(EpochRecord)", "columns = fields(EpochRecord)[::-1]",
        ("tests/test_codec.py::test_golden_bytes[history]",),
    ),
    Mutant(
        "digits-round-half-up", "src/cclearn/codec.py", "np.rint(e)", "np.floor(e + 0.5)",
        ("tests/test_codec.py::test_half_way_ties_round_to_even",
         "tests/test_codec.py::test_the_kernel_equals_the_oracle_on_ties_at_every_k"),
    ),
    Mutant(
        "digits-no-lo-lo-term", "src/cclearn/codec.py", " + lo * f_lo", "",
        ("tests/test_codec.py::test_golden_bytes",
         "tests/test_codec.py::test_the_kernel_equals_the_oracle_on_ties_at_every_k"),
    ),
    Mutant(  # each decade left at its binary exponent's estimate, one low near powers of ten
        "decade-no-tens-correction", "src/cclearn/codec.py", "    e10 += ax >= _TENS[e10 + 5]\n", "",
        ("tests/test_codec.py::test_the_neighbours_of_every_power_of_ten_and_of_the_window_edges",
         "tests/test_codec.py::test_a_million_values_across_the_fixed_notation_window"),
    ),
    Mutant(  # each non-float cell written as the next smaller distinct value
        "cell-lookup-off-by-one", "src/cclearn/codec.py",
        "rendered[np.searchsorted(values, cells[rows])]", "rendered[np.searchsorted(values, cells[rows]) - 1]",
        ("tests/test_codec.py::test_golden_bytes",
         "tests/test_codec.py::test_any_separator_end_and_str_columns",
         "tests/test_codec.py::test_chunked_writes_match_the_row_at_a_time_writer"),
    ),
    Mutant(  # bytes unchanged: numpy 2 imports numpy.ma in every stage that writes a label
        "cell-unique-imports-numpy-ma", "src/cclearn/codec.py",
        "np.unique(cells, return_counts=True)[0]", "np.unique(cells)",
        ("tests/test_codec.py::test_non_float_cells_load_no_numpy_module",),
    ),
    Mutant(  # bytes unchanged: only the rows per chunk move
        "width-ignores-str-columns", "src/cclearn/codec.py",
        "else 1 for c in columns)", "else 1 for c in columns if not isinstance(c, str))",
        ("tests/test_codec.py::test_chunked_writes_match_the_row_at_a_time_writer",
         "tests/test_codec.py::test_projection_rows_are_chunked_by_cells"),
    ),
    Mutant(  # a list cell's trailing NUL dropped again, silently
        "nul-cell-accepted", "src/cclearn/codec.py",
        "if isinstance(g, (list, tuple)) and any(", "if False and any(",
        ("tests/test_codec.py::test_a_list_cell_ending_in_nul_is_refused",),
    ),
    Mutant(
        "columns-row-count-unchecked", "src/cclearn/codec.py", "len(c) != n or ", "",
        ("tests/test_codec.py::test_array_columns_are_1_or_2_d_with_one_row_count",),
    ),
    Mutant(
        "columns-dtype-unchecked", "src/cclearn/codec.py", 'c.dtype.kind not in "fiubU"', "False",
        ("tests/test_codec.py::test_array_columns_are_1_or_2_d_with_one_row_count",),
    ),
    Mutant(
        "columns-zero-width-admitted", "src/cclearn/codec.py", "0 in c.shape[1:]", "False",
        ("tests/test_codec.py::test_array_columns_are_1_or_2_d_with_one_row_count",),
    ),
    Mutant(
        "m0-no-upper-bound", "src/cclearn/trainer.py", "ge=0, lt=1)", "ge=0)",
        ("tests/test_cli.py::TestTrain::test_wrong_value_type_fails_cleanly",
         "tests/test_trainer.py::TestTrainConfig::test_validation"),
    ),
    Mutant(
        "samples-per-class-no-lower-bound", "src/cclearn/data.py",
        "key(200, Integral, each=True, ge=1)", "key(200, Integral, each=True)",
        ("tests/test_cli.py::TestSynthData::test_wrong_value_type_fails_cleanly",
         "tests/test_config.py::test_readme_lists_every_key_its_default_and_its_rule"),
    ),
    Mutant(
        "bool-kind-admits-int", "src/cclearn/data.py",
        "isinstance(v, (bool, np.bool_))", "isinstance(v, (bool, np.bool_, int))",
        ("tests/test_trainer.py::TestTrainConfig::test_non_bool_shuffle_rejected",
         "tests/test_cli.py::TestTrain::test_wrong_value_type_fails_cleanly"),
    ),
    Mutant(  # dropping only "or math.isfinite(v)" would refuse every float
        "real-admits-nan-and-inf", "src/cclearn/data.py",
        "(isinstance(v, Integral) or math.isfinite(v))", "True",
        ("tests/test_cli.py::TestSynthData::test_wrong_value_type_fails_cleanly",
         "tests/test_cli.py::TestTrain::test_wrong_value_type_fails_cleanly"),
    ),
    Mutant(
        "translation-length-unchecked", "src/cclearn/data.py",
        ', ("translation", self.input_dim))', ")",
        ("tests/test_config.py::test_list_keys_must_fit_the_data_shape",
         "tests/test_cli.py::TestSynthData::test_wrong_value_type_fails_cleanly"),
    ),
    Mutant(
        "noise-drawn-per-domain", "src/cclearn/data.py",
        "np.multiply(drawn, std, out=scaled[: len(drawn)])",
        "np.multiply(rng.standard_normal(drawn.shape), std, out=scaled[: len(drawn)])",
        ("tests/test_data.py::TestGenerateDomains::test_bit_equal_to_the_whole_array_expressions",
         "tests/test_data.py::TestGenerateDomains::test_trivial_map_gives_equal_domains"),
    ),
    Mutant(  # the last row of each domain gets no noise
        "noise-last-block-short", "src/cclearn/data.py",
        "noise[: total - start]", "noise[: total - start - 1]",
        ("tests/test_data.py::TestGenerateDomains::test_bit_equal_to_the_whole_array_expressions",
         "tests/test_data.py::TestGenerateDomains::test_a_noise_block_of_one_row"),
    ),
    Mutant(  # each class mean added to the next class's block of rows
        "class-block-bounds-side", "src/cclearn/data.py",
        "labels.searchsorted(np.arange(config.num_classes + 1))",
        'labels.searchsorted(np.arange(config.num_classes + 1), "right")',
        ("tests/test_data.py::TestGenerateDomains::test_bit_equal_to_the_whole_array_expressions",),
    ),
    Mutant(  # the capped subprocess fails to allocate 7.28 TiB
        "parameter-budget-off", "src/cclearn/model.py",
        "if sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:])) > CELL_BUDGET:", "if False:",
        ("tests/test_cli.py::TestTrain::test_a_model_past_the_parameter_budget_fails_cleanly",
         "tests/test_model.py::TestInit::test_a_model_past_the_parameter_budget_is_refused"),
    ),
    Mutant(  # aim 3, gradients: the normalization Jacobian without its inner term
        "gradient-no-normalization-inner-term", "src/cclearn/model.py",
        "jacobian = (d_normalized - inner * cache.normalized) / cache.norms[:, None]",
        "jacobian = d_normalized / cache.norms[:, None]",
        ("tests/test_acceptance.py::test_criterion_2_gradient_correctness",
         "tests/test_model.py::TestBackward::test_full_model_matches_finite_differences"),
    ),
    Mutant(  # -0.0 entries, whose bits are not zero, skip the Jacobian as +0.0 entries do
        "jacobian-skip-on-nonzero", "src/cclearn/model.py",
        "if d_normalized.view(np.uint64).any():", "if d_normalized.any():",
        ("tests/test_model.py::test_signed_zeros_at_the_raw_features_keep_the_full_jacobians_bits",),
    ),
    Mutant(  # the skip keeps a -0.0 of the head's term, where the Jacobian's +0.0 turns it into +0.0
        "jacobian-skip-keeps-negative-zero", "src/cclearn/model.py",
        "jacobian = 0.0  #", "jacobian = -0.0  #",
        ("tests/test_model.py::test_signed_zeros_at_the_raw_features_keep_the_full_jacobians_bits",),
    ),
    Mutant(  # the layer that outputs the raw features gets a ReLU in forward, and backward misses it
        "relu-on-the-raw-features", "src/cclearn/model.py",
        " if i < params.raw_layer:", " if i <= params.raw_layer:",  # not the elif
        ("tests/test_model.py::TestBackward::test_full_model_matches_finite_differences",
         "tests/test_acceptance.py::test_criterion_2_gradient_correctness",
         "tests/test_model.py::test_forward_and_backward_are_bit_equal_to_the_pre_activation_pass"),
    ),
    Mutant(  # the contrast branch's gradient never reaches the backbone
        "contrast-branch-not-joined", "src/cclearn/model.py",
        "upstream = jacobian + upstream", "upstream = upstream",
        ("tests/test_model.py::test_signed_zeros_at_the_raw_features_keep_the_full_jacobians_bits",
         "tests/test_model.py::TestBackward::test_full_model_matches_finite_differences",
         "tests/test_acceptance.py::test_criterion_2_gradient_correctness"),
    ),
    Mutant(  # every step allocates its gradients again, and the caller's buffer is never written
        "backward-ignores-out", "src/cclearn/model.py",
        "grads = Gradients.zeros(params.shapes) if out is None else out",
        "grads = Gradients.zeros(params.shapes)",
        ("tests/test_model.py::test_out_is_written_over_and_returned_with_the_bits_of_a_new_gradients",
         "tests/test_trainer.py::TestTrain::test_each_run_writes_every_step_into_one_gradients"),
    ),
    Mutant(  # the old block size: a cache 16 times larger, and other bits at 2 BLAS threads
        "infer-blocks-of-4096-rows", "src/cclearn/trainer.py",
        "INFER_ROWS = 256", "INFER_ROWS = 4096",
        ("tests/test_trainer.py::TestInfer::test_blocks_never_grow",
         "tests/test_memory.py::test_predict_logits_holds_one_block_of_cache"),
    ),
    Mutant(  # a table of 0 rows runs no block, and no block allocates the output
        "infer-no-block-for-no-rows", "src/cclearn/trainer.py",
        "range(0, max(1, len(x)), INFER_ROWS)", "range(0, len(x), INFER_ROWS)",
        ("tests/test_trainer.py::TestInfer::test_blocks_cover_the_rows_in_order",),
    ),
    Mutant(  # each block repeats the first row of the next, which overwrites it in the output
        "infer-blocks-overlap", "src/cclearn/trainer.py",
        "x[start : start + INFER_ROWS]", "x[start : start + INFER_ROWS + 1]",
        ("tests/test_trainer.py::TestInfer::test_blocks_cover_the_rows_in_order",
         "tests/test_trainer.py::TestInfer::test_blocks_never_grow"),
    ),
    Mutant(  # each block leaves out its last row
        "infer-blocks-skip-a-row", "src/cclearn/trainer.py",
        "x[start : start + INFER_ROWS]", "x[start : start + INFER_ROWS - 1]",
        ("tests/test_trainer.py::TestInfer::test_blocks_never_grow",
         "tests/test_trainer.py::TestInfer::test_a_table_of_at_most_one_block_is_one_forward"),
    ),
    Mutant(  # a degenerate row past the first block is numbered within its block alone
        "infer-error-not-renumbered", "src/cclearn/trainer.py",
        "if start:  # the error numbers the rows of its block", "if False:",
        ("tests/test_trainer.py::TestInfer::test_degenerate_rows_are_numbered_from_their_block",),
    ),
    Mutant(  # a continued run starts again from epoch 0
        "fit-ignores-history", "src/cclearn/trainer.py",
        "range(len(report.history), config.epochs)", "range(config.epochs)",
        ("tests/test_trainer.py::TestResume::test_a_run_stopped_after_any_epoch_continues_bit_for_bit",),
    ),
    Mutant(  # the fine-tune's constant rate follows the source schedule instead
        "finetune-lr-follows-schedule", "src/cclearn/trainer.py",
        "lr_at(step, *schedule) if source else config.base_lr", "lr_at(step, *schedule)",
        ("tests/test_trainer.py::TestFinetune::test_bank_untouched",),
    ),
    Mutant(  # every epoch's steps count from 0 again: the schedule and the messages restart
        "schedule-restarts-each-epoch", "src/cclearn/trainer.py",
        "enumerate(batches, epoch * steps)", "enumerate(batches)",
        ("tests/test_trainer.py::TestTrain::test_alpha_zero_bitwise_equals_centroid_free_loop",
         "tests/test_trainer.py::TestTrain::test_divergence_after_the_first_epoch_names_the_global_step"),
    ),
    Mutant(  # history.csv claims every sample folded into a bank that an alpha-0 run never touched
        "ema-samples-counted-without-folding", "src/cclearn/trainer.py",
        "ema_samples=n if fold else 0", "ema_samples=n",
        ("tests/test_trainer.py::TestTrain::test_alpha_zero_never_touches_bank",),
    ),
    Mutant(  # a bank file's smoothing above 1 loads
        "bank-m-outside-unit-interval", "src/cclearn/centroids.py",
        "if not 0.0 <= m <= 1.0:", "if not 0.0 <= m:",
        ("tests/test_centroids.py::TestBankIO::test_malformed_or_non_finite_bank_raises_state_error",
         "tests/test_centroids.py::TestBankIO::test_a_refused_header_names_its_fault"),
    ),
    Mutant(  # the blend norms through BLAS again: the bank's bits follow the kernel
        "ema-blend-norm-blas", "src/cclearn/centroids.py",
        "norms = np.sqrt(np.add.reduce(blended * blended, axis=1))",
        "norms = np.sqrt(blended[:, None, :] @ blended[:, :, None])[:, 0, 0]",
        ("tests/test_centroids.py::test_ema_update_is_bit_equal_to_the_per_class_loop",
         "tests/test_step_oracles.py::test_ema_update_matches_the_oracle"),
    ),
    Mutant(  # aim 3, the schedule: m one epoch ahead
        "schedule-one-epoch-ahead", "src/cclearn/centroids.py",
        "(epoch / total_epochs)", "((epoch + 1) / total_epochs)",
        ("tests/test_acceptance.py::test_criterion_3_ema_and_schedule_exactness",
         "tests/test_centroids.py::TestUpdateSmoothing::test_hand_midpoint"),
    ),
    Mutant(  # aim 3, reproducibility
        "unseeded-shuffle", "src/cclearn/data.py",
        "np.random.default_rng(seed).permutation(n)", "np.random.default_rng().permutation(n)",
        ("tests/test_acceptance.py::test_criterion_8_reproducibility",
         "tests/test_data.py::TestMakeBatches::test_seeded_shuffle_deterministic"),
    ),
    Mutant(  # aim 3, sidecar soundness: a sidecar of another table is read
        "sidecar-digest-unchecked", "src/cclearn/data.py",
        "!= _file_digest(path):", "is None:",
        ("tests/test_codec.py::test_a_table_edited_after_saving_reads_as_text",),
    ),
    Mutant(  # a domain over csv's field size limit loads from the sidecar, though the text is refused
        "sidecar-domain-past-field-limit", "src/cclearn/data.py",
        " or len(domain) > field_size_limit():", ":",
        ("tests/test_codec.py::test_a_saved_table_the_text_reader_refuses_stays_refused",
         "tests/test_codec.py::test_a_domain_loads_from_its_sidecar_exactly_when_the_scan_reads_it"),
    ),
    Mutant(  # one number rule for every reader: a table, a model and a bank each read "1_0" as 10
        "number-rule-admits-underscore", "src/cclearn/codec.py",
        'if "_" in text or not text.isascii():', "if not text.isascii():",
        ("tests/test_codec.py::test_numeric_cells_no_writer_emits_are_refused",
         "tests/test_model.py::TestCheckpoint::test_non_finite_or_non_numeric_weight_names_the_file",
         "tests/test_centroids.py::TestBankIO::test_malformed_or_non_finite_bank_raises_state_error"),
    ),
    Mutant(  # each record after the first named by the line before it
        "reader-line-number-off-by-one", "src/cclearn/codec.py",
        "start = reader.line_num + 1", "start = reader.line_num",
        ("tests/test_data.py::TestTableIO::test_errors_name_the_physical_line_of_a_multi_line_record",
         "tests/test_codec.py::test_one_number_rule_refuses_a_bad_cell_naming_the_file_and_line"),
    ),
    Mutant(  # README cites the old name
        "readme-cited-test-renamed", "tests/test_kernels.py",
        "def test_the_bank_is_the_same_under_every_openblas_kernel(",
        "def test_the_bank_is_unchanged_under_every_openblas_kernel(",
        ("tests/test_named_tests.py::test_every_test_that_readme_and_ci_name_exists",),
    ),
    Mutant(  # the CI workflow's comment cites the old name
        "ci-cited-test-renamed", "tests/test_step_oracles.py",
        "def test_ufunc_row_norms_are_the_bits_of_linalg_norm(",
        "def test_ufunc_row_norms_equal_linalg_norm(",
        ("tests/test_named_tests.py::test_every_test_that_readme_and_ci_name_exists",),
    ),
]


def mutate(source: str, mutant: Mutant) -> str:
    """``source`` with ``mutant.text`` replaced; ValueError unless it occurs once."""
    count = source.count(mutant.text)
    if count != 1:
        raise ValueError(f"{mutant.file}: {mutant.text!r} occurs {count} times, not once")
    return source.replace(mutant.text, mutant.replacement)


def failed_nodes(output: str, kills: tuple[str, ...]) -> list[str]:
    """The node IDs of ``kills`` under which pytest's ``-rfE`` summary in
    ``output`` reports a failed or erroring test."""
    reported = [line.split(" ", 1)[1] for line in output.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    return [node for node in kills
            if any(r.startswith(node) and r[len(node):][:1] in ("", "[", ":", " ") for r in reported)]


def pytest(tree: Path, nodes: tuple[str, ...]) -> subprocess.CompletedProcess:
    """Run ``nodes`` in ``tree`` with the tree's ``src`` first on the import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE", *nodes],
        cwd=tree, env=env, capture_output=True, text=True,
    )


def left_out(directory: str, names: list[str]) -> list[str]:
    """The ``names`` in ``directory`` that the copy of the checkout leaves out."""
    return [n for n in names
            if n in ("__pycache__", ".pytest_cache", ".hypothesis")
            or (Path(directory) == ROOT and n == ".git")
            or (Path(directory) == ROOT / "perfbench" and n == ".work")]


def run(mutant: Mutant) -> tuple[str, list[str]]:
    """Apply ``mutant`` to a copy of the checkout and run its named tests:
    the verdict and the node IDs that failed."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=left_out)
        path = tree / mutant.file
        try:
            mutated = mutate(path.read_text(), mutant)
        except (OSError, ValueError) as exc:
            return f"stale ({exc})", []
        baseline = pytest(tree, mutant.kills)
        if baseline.returncode != 0:
            last = (baseline.stdout.strip().splitlines() or ["no output"])[-1]
            return f"broken (unmutated: {last})", failed_nodes(baseline.stdout, mutant.kills)
        path.write_text(mutated)
        proc = pytest(tree, mutant.kills)
    failed = failed_nodes(proc.stdout, mutant.kills)
    return ("killed" if len(failed) == len(mutant.kills) else "survived"), failed


def main() -> int:
    ok = True
    for mutant in MUTANTS:
        started = time.perf_counter()
        verdict, failed = run(mutant)
        ok &= verdict == "killed"
        print(f"{verdict}: {mutant.name} ({time.perf_counter() - started:.1f}s; "
              f"{len(failed)} of {len(mutant.kills)} named failed: {', '.join(failed) or '-'})",
              flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

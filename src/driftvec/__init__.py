"""driftvec: diachronic word embeddings for scarce time-sliced corpora.

Three trainers share one corpus pipeline, one epoch pair stream and one
held-out score: incremental skip-gram (per slice, warm-started from the
previous slice), a dynamically filtered Bayesian skip-gram (Gaussian
posteriors under a diffusion prior), and dynamic Bernoulli embeddings
(per-slice word vectors, one shared context matrix, random-walk prior).
Analysis tools cover per-word drift, superimposed drift histograms,
directedness/stability diagnostics, held-out likelihood evaluation, and
a HardShrink drift penalty.
"""

from .adam import AdamState, adam_step, adam_step_rows
from .analysis import (DriftSeries, directedness, drift_histogram, drift_series,
                       evaluate_lpos, stability_fraction)
from .corpus import (TimeSlicedCorpus, Vocabulary, build_vocabulary, extract_pairs,
                     sample_negatives, slice_corpus, split_holdout, subsample_corpus)
from .dbe import DbeParams, dbe_prior, train_dbe
from .dsg import DsgParams, combine_priors, dsg_filter_step, train_dsg
from .inits import InitScheme, apply_scheme, init_internal, init_random, load_pretrained
from .isg import train_incremental, train_slice
from .sgns import TrainConfig, TrainResult, mean_lpos, sigmoid
from .shrinkreg import RegConfig, word_drifts
from .synth import PlantedChange, SynthSpec, TopicProfile, generate

__version__ = "0.1.0"

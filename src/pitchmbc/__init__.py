"""Model-based clustering, labeling, and stability analysis for pitch data."""

from .archive import ModelArchive, archive_from_results, load_archive, save_archive
from .errors import (AllRestartsDegenerate, ArchiveError, ArchiveVersionMismatch,
                     DimensionMismatch, EmptyCluster, EmptyDataset, FitError,
                     IngestError, MalformedRow, MissingColumn, NoViableK,
                     PitchMbcError, SingularCovariance, TooFewPoints)
from .ingest import (ColumnSchema, DEFAULT_SCHEMA, PitchDataset, PitchRecord,
                     filter_pitches, parse_pitch_csv, write_pitch_csv)
from .labeling import (LabelConfig, LabeledModel, PitchType, classify_dataset,
                       label_clusters)
from .mixture import (EmConfig, FittedMixture, MixtureComponent, e_step, fit_em, m_step,
                      param_count)
from .selection import (CriterionScore, SelectionConfig, SelectionResult, bic,
                        bic_adj, choose_best, select_k)
from .stability import (StabilityReport, align_clusters, aligned_agreement,
                        stability_run)

__version__ = "0.1.0"

"""Multi-head shift-error channel model and deletion/edit correcting codecs."""

from .delcodec import decode_deletions, deletion_layout, encode_deletions
from .editcodec import decode_edits, edit_layout, encode_edits
from .errors import DecodeFailure, ParamViolation, RtCodecError
from .model import (
    BitTrack,
    DeletionPattern,
    EditPattern,
    ReadMatrix,
    apply_deletions,
    apply_edits,
    sample_edit_pattern,
)
from .params import CodeParams

__version__ = "0.1.0"

"""Privacy-preserving federated learning with norm-based attacker weighting.

Layered bottom-up: `ring` (RNS polynomial arithmetic over NTT-friendly prime
chains), `he` (leveled approximate HE on those rings), `multikey` (pairwise
mask cancellation and group decryption across users), `aggregation` (plain and
encrypted robust weighting plus the full server round), `simulation` (the
federated task, attackers, and experiment driver), `cli` (the command line).
"""

from .aggregation import (
    AGGREGATORS,
    EncryptedUpdate,
    encrypt_update,
    fedavg,
    krum,
    make_aggregator,
    non_poisoning_rates,
    rates_encrypted,
    secure_aggregate_round,
    sq_norm_encrypted,
    sq_norm_plain,
    trimmed_mean,
    weighted_aggregate_plain,
)
from .errors import (
    DomainError,
    EncodingError,
    FheflError,
    LevelError,
    ParameterError,
    ProtocolError,
    SerializationError,
    TrainingDiverged,
)
from .he import (
    Ciphertext,
    EvalKey,
    HeParams,
    PlainVector,
    SecretKey,
    ciphertext_from_bytes,
    ciphertext_to_bytes,
    common_poly,
    decode,
    decrypt,
    encode,
    encrypt,
    get_params,
    he_add,
    he_mult_relin,
    plain_affine,
    preset_names,
)
from .multikey import (
    MaskedKey,
    PartialDecryption,
    UserKeyring,
    aggregate_fresh,
    combine_partials,
    group_decrypt,
    mask_key,
    masked_partial_decrypt,
    reconstruct_group_key,
    setup_pairwise,
)
from .simulation import (
    Architecture,
    AttackConfig,
    BoundReport,
    Dataset,
    SimConfig,
    attack_success_rate,
    corollary4_check,
    corollary_threshold,
    flip_labels,
    load_csv_dataset,
    local_train,
    make_synthetic,
    run_experiment,
    run_experiment_suite,
    shard_iid,
)

__version__ = "0.1.0"

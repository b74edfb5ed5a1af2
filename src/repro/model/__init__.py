"""Reference NumPy implementation of the E2E ASR Transformer.

This is the *functional golden model*: a 12-encoder / 6-decoder
attention encoder-decoder with d_model=512, 8 heads and d_ff=2048
(Section 3.4 of the paper).  The hardware simulator in :mod:`repro.hw`
must agree numerically with this implementation.
"""

from repro.model.attention import (
    attention_head,
    multi_head_attention,
    scaled_dot_product_attention,
)
from repro.model.decoder import decoder_layer
from repro.model.encoder import encoder_layer
from repro.model.ffn import feed_forward
from repro.model.flops import (
    decoder_layer_flops,
    encoder_layer_flops,
    matmul_flops,
    transformer_flops,
)
from repro.model.layernorm import add_norm, layer_norm
from repro.model.masks import causal_mask, combine_masks, padding_mask
from repro.model.ops import linear, log_softmax, relu, softmax
from repro.model.params import (
    AttentionParams,
    DecoderLayerParams,
    EncoderLayerParams,
    FeedForwardParams,
    LayerNormParams,
    TransformerParams,
    init_transformer_params,
    load_params,
    save_params,
)
from repro.model.transformer import Transformer

__all__ = [
    "attention_head",
    "multi_head_attention",
    "scaled_dot_product_attention",
    "decoder_layer",
    "encoder_layer",
    "feed_forward",
    "decoder_layer_flops",
    "encoder_layer_flops",
    "matmul_flops",
    "transformer_flops",
    "add_norm",
    "layer_norm",
    "causal_mask",
    "combine_masks",
    "padding_mask",
    "linear",
    "log_softmax",
    "relu",
    "softmax",
    "AttentionParams",
    "DecoderLayerParams",
    "EncoderLayerParams",
    "FeedForwardParams",
    "LayerNormParams",
    "TransformerParams",
    "init_transformer_params",
    "load_params",
    "save_params",
    "Transformer",
]

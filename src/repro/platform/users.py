"""User identities and profile attributes.

The paper's aggregate measures are functions of a user's profile and
timeline: number of followers (Figures 2, 8, 9), display-name length
(Figures 11, 12), gender as a predicate (Figure 13), and per-post likes
(Figure 14).  Profiles carry all of these; the platform profile decides
which fields the *API* exposes (e.g. gender is "generally missing from
Twitter profiles" — §6.2 — but present on Google+).
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro._rng import RandomLike, ensure_rng

# Name fragments for synthetic display names.  Lengths span 4–20+ chars so
# AVG(display-name length) has the low variance the paper exploits in Fig. 11.
_FIRST = (
    "alex", "sam", "jo", "chris", "pat", "taylor", "jordan", "casey",
    "morgan", "riley", "avery", "quinn", "dana", "jamie", "lee", "max",
)
_LAST = (
    "smith", "johnson", "lee", "garcia", "chen", "patel", "kim", "nguyen",
    "brown", "davis", "martinez", "wilson", "anderson", "thomas", "moore",
)


class Gender(enum.Enum):
    """Profile gender attribute (used by the Figure 13 predicate)."""

    MALE = "male"
    FEMALE = "female"
    UNDISCLOSED = "undisclosed"


@dataclass
class UserProfile:
    """All true attributes of one platform user.

    ``followers`` is the user's total connection count in the undirected
    social graph — the measure behind AVG(#followers).  It is stored on the
    profile (as real platforms do) so a timeline fetch reveals it without
    paging through the connections API.
    """

    user_id: int
    display_name: str
    gender: Gender
    age: int
    followers: int = 0

    @property
    def display_name_length(self) -> int:
        return len(self.display_name)


GENDER_CODES = (Gender.MALE, Gender.FEMALE, Gender.UNDISCLOSED)
"""Stable int8 encoding of :class:`Gender` for columnar storage."""


class ColumnProfiles(Mapping):
    """Lazy profile mapping over columnar (possibly memmapped) attributes.

    Behaves like the ``Dict[int, UserProfile]`` the rest of the platform
    expects — same iteration order (ascending user id, matching the
    sorted dict the builders produce), same lookups — but materialises a
    :class:`UserProfile` only on access, so opening a 10M-user platform
    from disk does not allocate 10M dataclass instances up front.

    ``followers`` is filled from *degree_of* (the frozen CSR graph's
    degree) at materialisation time; materialised profiles are cached so
    repeated access returns the identical object, preserving the
    "profiles are shared mutable metadata" contract.
    """

    def __init__(
        self,
        user_ids: np.ndarray,
        names: np.ndarray,
        gender_codes: np.ndarray,
        ages: np.ndarray,
        degree_of: Optional[Callable[[int], int]] = None,
    ) -> None:
        self._ids = user_ids
        self._names = names
        self._genders = gender_codes
        self._ages = ages
        self._degree_of = degree_of
        self._cache: Dict[int, UserProfile] = {}

    def _row(self, user_id: int) -> int:
        idx = int(np.searchsorted(self._ids, user_id))
        if idx >= self._ids.size or self._ids[idx] != user_id:
            raise KeyError(user_id)
        return idx

    def __getitem__(self, user_id: int) -> UserProfile:
        cached = self._cache.get(user_id)
        if cached is not None:
            return cached
        row = self._row(user_id)
        profile = UserProfile(
            user_id=int(self._ids[row]),
            display_name=str(self._names[row]),
            gender=GENDER_CODES[int(self._genders[row])],
            age=int(self._ages[row]),
            followers=self._degree_of(user_id) if self._degree_of else 0,
        )
        self._cache[user_id] = profile
        return profile

    def __contains__(self, user_id: object) -> bool:
        if not isinstance(user_id, (int, np.integer)):
            return False
        idx = int(np.searchsorted(self._ids, user_id))
        return idx < self._ids.size and self._ids[idx] == user_id

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids.tolist())

    def __len__(self) -> int:
        return int(self._ids.size)

    def items(self):
        for user_id in self:
            yield user_id, self[user_id]

    def values(self):
        for user_id in self:
            yield self[user_id]


def profile_columns(profiles) -> Dict[str, np.ndarray]:
    """Decompose an id->profile mapping into flat columns (ascending id).

    The inverse of :class:`ColumnProfiles`: the sharded on-disk layout
    stores these four arrays and reconstructs the mapping lazily.
    """
    ids = np.array(sorted(profiles), dtype=np.int64)
    gender_index = {g: i for i, g in enumerate(GENDER_CODES)}
    names = np.array([profiles[i].display_name for i in ids.tolist()])
    genders = np.array(
        [gender_index[profiles[i].gender] for i in ids.tolist()], dtype=np.int8
    )
    ages = np.array([profiles[i].age for i in ids.tolist()], dtype=np.int16)
    return {
        "prof_ids": ids,
        "prof_names": names,
        "prof_gender": genders,
        "prof_age": ages,
    }


def generate_profile(user_id: int, seed: RandomLike = None) -> UserProfile:
    """Random plausible profile for *user_id* (followers filled in later)."""
    rng = ensure_rng(seed)
    style = rng.random()
    if style < 0.4:
        name = rng.choice(_FIRST)
    elif style < 0.8:
        name = f"{rng.choice(_FIRST)} {rng.choice(_LAST)}"
    else:
        name = f"{rng.choice(_FIRST)}_{rng.choice(_LAST)}{rng.randrange(100)}"
    gender = rng.choices(
        (Gender.MALE, Gender.FEMALE, Gender.UNDISCLOSED),
        weights=(0.46, 0.44, 0.10),
    )[0]
    age = int(min(80, max(13, rng.gauss(29, 11))))
    return UserProfile(user_id=user_id, display_name=name, gender=gender, age=age)


def generate_profiles(num_users: int, seed: RandomLike = None) -> List[UserProfile]:
    """Profiles for users ``0..num_users-1`` with batched attribute draws.

    Same marginal distributions as :func:`generate_profile` (name styles,
    gender weights, truncated-gaussian age) but every random column comes
    from one numpy batch, so building 10^5 profiles costs a handful of
    vector draws instead of five python-rng calls per user.  The draw
    sequence differs from the per-user path; every data plane builds its
    profiles here.
    """
    rng = ensure_rng(seed)
    nrng = np.random.default_rng(rng.getrandbits(128))
    style = nrng.random(num_users)
    first = nrng.integers(0, len(_FIRST), size=num_users)
    last = nrng.integers(0, len(_LAST), size=num_users)
    suffix = nrng.integers(0, 100, size=num_users)
    gender_draw = nrng.random(num_users)
    ages = np.clip(nrng.normal(29.0, 11.0, size=num_users), 13, 80).astype(np.int64)

    profiles: List[UserProfile] = []
    for user_id in range(num_users):
        s = style[user_id]
        if s < 0.4:
            name = _FIRST[first[user_id]]
        elif s < 0.8:
            name = f"{_FIRST[first[user_id]]} {_LAST[last[user_id]]}"
        else:
            name = f"{_FIRST[first[user_id]]}_{_LAST[last[user_id]]}{suffix[user_id]}"
        g = gender_draw[user_id]
        if g < 0.46:
            gender = Gender.MALE
        elif g < 0.90:
            gender = Gender.FEMALE
        else:
            gender = Gender.UNDISCLOSED
        profiles.append(
            UserProfile(
                user_id=user_id, display_name=name, gender=gender, age=int(ages[user_id])
            )
        )
    return profiles
